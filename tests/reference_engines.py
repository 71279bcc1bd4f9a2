"""Per-operation reference loops for the engines' data paths (tests only).

Each function here is the plain loop the corresponding engine code is
checked against: one ``counted_*`` call per scalar operation, in the order
the engine performs them.  The engines run the same arithmetic with inline
operators over slices and charge their tallies once per loop; the
reference-equality tests require bit-identical outputs and identical tallies.
"""

from functools import reduce
from operator import add

from primeconv.core import as_signal, reverse_permute
from primeconv.counting import OpTally, Scalar
from primeconv.fast import FastPlan


def counted_mul(a: Scalar, b: Scalar, tally: OpTally) -> Scalar:
    """Return a * b and charge one multiplication (no zero/one shortcuts)."""
    tally.mults += 1
    return a * b


def counted_add(a: Scalar, b: Scalar, tally: OpTally) -> Scalar:
    """Return a + b and charge one addition."""
    tally.adds += 1
    return a + b


def counted_sub(a: Scalar, b: Scalar, tally: OpTally) -> Scalar:
    """Return a - b and charge one addition; subtractions count as adds."""
    tally.adds += 1
    return a - b


def direct(kernel, data, tally: OpTally):
    """core.direct_cyclic_convolution: out[p] = sum_l b[l] * z[(p - l) mod n]."""
    bs = as_signal(kernel).samples
    zs = as_signal(data).samples
    n = len(bs)
    out = []
    for p in range(n):
        acc = counted_mul(bs[0], zs[p], tally)
        for l in range(1, n):
            acc = counted_add(acc, counted_mul(bs[l], zs[(p - l) % n], tally), tally)
        out.append(acc)
    return out


def block_schedule(plan, y, add_, sub_, mul_):
    """fast._execute's schedule on aligned ring elements ``y``: returns
    (base, upper table, sums, output).  ``mul_(weight, element)`` and the
    additions are the ring's operations; negation is free."""
    n = len(y)
    w = plan.diff_weights

    total = y[0]
    for j in range(1, n):
        total = add_(total, y[j])
    base = mul_(plan.kernel_mean, total)

    upper = []
    for i in range(n - 1):
        row = []
        for j in range(i + 1, n):
            row.append(mul_(w[(i + j) % n], sub_(y[j], y[i])))
        upper.append(row)

    sums = []
    for i in range(n - 1):
        acc = None
        for j in range(n):
            if j == i:
                continue
            if j > i:
                term = upper[i][j - i - 1]
                acc = term if acc is None else add_(acc, term)
            else:
                term = upper[j][i - j - 1]
                acc = negate(term) if acc is None else sub_(acc, term)
        sums.append(acc)
    # Untallied, as in the engine: a left fold from 0, componentwise.
    if isinstance(y[0], list):
        sums.append([-reduce(add, column, 0) for column in zip(*sums)])
    else:
        sums.append(-reduce(add, sums, 0))

    out = [sub_(base, value) for value in sums]
    return base, upper, sums, out


def negate(value):
    return [-v for v in value] if isinstance(value, list) else -value


def fast_execute(plan, data, tally: OpTally):
    """fast._execute for a single-block plan: returns (aligned, base, upper
    table, sums, output)."""
    y = reverse_permute(data)
    base, upper, sums, out = block_schedule(
        plan, y,
        lambda a, b: counted_add(a, b, tally),
        lambda a, b: counted_sub(a, b, tally),
        lambda a, b: counted_mul(a, b, tally))
    return y, base, upper, sums, out


def fast_run(plan, data, tally: OpTally) -> list:
    """fast._run: the output of a single-block or nested plan."""
    if isinstance(plan, FastPlan):
        return fast_execute(plan, data, tally)[4]
    return fast_nested(plan, data, tally)


def fast_nested(plan, data, tally: OpTally) -> list:
    """fast._run on a nested plan: the block schedule at length q over
    length-m vectors of the Good-Thomas map, whose products are inner runs
    and whose sums are elementwise."""
    n, q = plan.length, len(plan.diff_weights)
    m = n // q
    zs = as_signal(data).samples
    rows = [[zs[k] for k in plan.order[a * m:a * m + m]] for a in range(q)]
    y = rows[:1] + rows[:0:-1]  # outer reversal alignment
    *_, outs = block_schedule(
        plan, y,
        lambda u, v: [counted_add(a, b, tally) for a, b in zip(u, v)],
        lambda u, v: [counted_sub(a, b, tally) for a, b in zip(u, v)],
        lambda inner, v: fast_run(inner, v, tally))
    out = [None] * n
    for a, row in enumerate(outs):
        for c, value in enumerate(row):
            out[plan.order[a * m + c]] = value
    return out


def poly_mul(a, b, tally: OpTally) -> list:
    """polycrt.poly_mul: schoolbook product seeded by each slot's first term."""
    out = [None] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            term = counted_mul(av, bv, tally)
            k = i + j
            out[k] = term if out[k] is None else counted_add(out[k], term, tally)
    return out


def reduce_mod_all_ones(coeffs, n: int, tally: OpTally) -> list:
    """polycrt._reduce_mod_all_ones: wrap exponents mod n, then eliminate
    the x^{n-1} term."""
    work = list(coeffs)
    for k in range(n, len(work)):
        work[k - n] = counted_add(work[k - n], work[k], tally)
    del work[n:]
    if len(work) == n:
        top = work[n - 1]
        work = [counted_sub(work[j], top, tally) for j in range(n - 1)]
    else:
        work = work + [0.0] * (n - 1 - len(work))
    return work


def two_factor(kernel, data, tally: OpTally):
    """polycrt.winograd_two_factor_convolution built from the loops above,
    ending in the closed-form recombination f = r + ((v - r(1)) / n) * Phi."""
    bs = as_signal(kernel).samples
    zs = as_signal(data).samples
    n = len(bs)

    kernel_total = reduce(add, bs, 0)
    data_total = zs[0]
    for value in zs[1:]:
        data_total = counted_add(data_total, value, tally)
    point_product = counted_mul(kernel_total, data_total, tally)

    kernel_residue = reduce_mod_all_ones(bs, n, OpTally())
    data_residue = reduce_mod_all_ones(zs, n, tally)
    product = poly_mul(kernel_residue, data_residue, tally)
    residue = reduce_mod_all_ones(product, n, tally)

    residue_at_one = residue[0]
    for value in residue[1:]:
        residue_at_one = counted_add(residue_at_one, value, tally)
    c = counted_mul(counted_sub(point_product, residue_at_one, tally), 1.0 / n, tally)
    return [counted_add(r, c, tally) for r in residue] + [c]
