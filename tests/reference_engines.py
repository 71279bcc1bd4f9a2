"""Per-operation reference loops for the engines' data paths (tests only).

Each function here is the plain loop the corresponding engine code is
checked against: one ``counted_*`` call per scalar operation, in the order
the engine performs them.  The engines run the same arithmetic with inline
operators over slices and charge their tallies once per loop; the
reference-equality tests require bit-identical outputs and identical tallies.
``rader_split_complex`` is Rader's split with complex-typed half kernels,
composed from the engines' public runners: the reference for the split's
real arithmetic.
"""

from collections.abc import Callable
from functools import reduce
from operator import add
from typing import NamedTuple

from primeconv.core import as_signal
from primeconv.counting import OpTally, Scalar
from primeconv.fast import FastPlan
from primeconv.nesting import UnitPlan, good_thomas_order
from primeconv.polycrt import TwoFactorPlan
from primeconv.verification import reverse_permute


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


class Ring(NamedTuple):
    """The operations a block schedule uses on its ring elements:
    ``mul(coefficient, element)`` multiplies by a kernel coefficient and
    ``scale(element, constant)`` by a per-length constant."""

    add: Callable
    sub: Callable
    mul: Callable
    scale: Callable


def scalars(tally: OpTally) -> Ring:
    """Scalar ring elements, every operation counted."""
    return Ring(lambda a, b: counted_add(a, b, tally), lambda a, b: counted_sub(a, b, tally),
                lambda a, b: counted_mul(a, b, tally), lambda a, b: counted_mul(a, b, tally))


def vectors(tally: OpTally, run) -> Ring:
    """Length-m vectors of a nested plan's outer block: sums and scalings
    lane by lane, products as ``run(inner_plan, vector, tally)``."""
    return Ring(lambda u, v: [counted_add(a, b, tally) for a, b in zip(u, v)],
                lambda u, v: [counted_sub(a, b, tally) for a, b in zip(u, v)],
                lambda inner, v: run(inner, v, tally),
                lambda u, c: [counted_mul(a, c, tally) for a in u])


def block_schedule(plan, y, ring: Ring):
    """FastPlan.run's schedule on aligned ring elements ``y``: returns the
    output.  Negation is free."""
    n = len(y)
    w = plan.diff_weights

    total = y[0]
    for j in range(1, n):
        total = ring.add(total, y[j])
    base = ring.mul(plan.kernel_mean, total)

    upper = []
    for i in range(n - 1):
        row = []
        for j in range(i + 1, n):
            row.append(ring.mul(w[(i + j) % n], ring.sub(y[j], y[i])))
        upper.append(row)

    sums = []
    for i in range(n - 1):
        acc = None
        for j in range(n):
            if j == i:
                continue
            if j > i:
                term = upper[i][j - i - 1]
                acc = term if acc is None else ring.add(acc, term)
            else:
                term = upper[j][i - j - 1]
                acc = negate(term) if acc is None else ring.sub(acc, term)
        sums.append(acc)
    # Untallied, as in the engine: a left fold from 0, componentwise.
    if isinstance(y[0], list):
        sums.append([-reduce(add, column, 0) for column in zip(*sums)])
    else:
        sums.append(-reduce(add, sums, 0))

    return [ring.sub(base, value) for value in sums]


def negate(value):
    return [-v for v in value] if isinstance(value, list) else -value


def fast_execute(plan, data, tally: OpTally):
    """FastPlan.run for a single-block plan: returns the output."""
    return block_schedule(plan, reverse_permute(data), scalars(tally))


def fast_run(plan, data, tally: OpTally) -> list:
    """FastPlan.run, NestedPlan.run or UnitPlan.run for fast-prime: the
    output of a single-block or nested plan, or direct's one product."""
    if isinstance(plan, UnitPlan):
        return direct([plan.coefficient], data, tally)
    if isinstance(plan, FastPlan):
        return fast_execute(plan, data, tally)
    rows = good_thomas_rows(plan, data)
    y = rows[:1] + rows[:0:-1]  # outer reversal alignment
    return good_thomas_scatter(plan, block_schedule(plan.block, y, vectors(tally, fast_run)))


def good_thomas_rows(plan, data) -> list:
    """NestedPlan.run's gather: the q rows of length m of a nested plan's map."""
    n, q = plan.length, plan.block.length
    m = n // q
    zs = as_signal(data).samples
    return [[zs[k] for k in plan.order[a * m:a * m + m]] for a in range(q)]


def good_thomas_scatter(plan, rows) -> list:
    """NestedPlan.run's scatter, the inverse of good_thomas_rows."""
    m = len(rows[0])
    out = [None] * plan.length
    for a, row in enumerate(rows):
        for c, value in enumerate(row):
            out[plan.order[a * m + c]] = value
    return out


def poly_mul(a, b, ring: Ring) -> list:
    """polycrt.poly_mul: schoolbook product seeded by each slot's first term."""
    out = [None] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            term = ring.mul(av, bv)
            k = i + j
            out[k] = term if out[k] is None else ring.add(out[k], term)
    return out


def reduce_mod_all_ones(coeffs, n: int, ring: Ring) -> list:
    """polycrt._reduce_mod_all_ones: wrap exponents mod n, then eliminate
    the x^{n-1} term."""
    work = list(coeffs)
    for k in range(n, len(work)):
        work[k - n] = ring.add(work[k - n], work[k])
    del work[n:]
    if len(work) == n:
        top = work[n - 1]
        work = [ring.sub(work[j], top) for j in range(n - 1)]
    return work


def two_factor_block(plan, z, ring: Ring) -> list:
    """TwoFactorPlan.run built from the loops above, ending in the
    closed-form recombination f = r + ((v - r(1)) * (1/n)) * Phi."""
    n = plan.length
    data_total = z[0]
    for value in z[1:]:
        data_total = ring.add(data_total, value)
    point_product = ring.mul(plan.kernel_total, data_total)

    data_residue = reduce_mod_all_ones(z, n, ring)
    product = poly_mul(plan.kernel_residue, data_residue, ring)
    residue = reduce_mod_all_ones(product, n, ring)

    residue_at_one = residue[0]
    for value in residue[1:]:
        residue_at_one = ring.add(residue_at_one, value)
    c = ring.scale(ring.sub(point_product, residue_at_one), 1.0 / n)
    return [ring.add(r, c) for r in residue] + [c]


def two_factor(plan, data, tally: OpTally) -> list:
    """TwoFactorPlan.run, NestedPlan.run or UnitPlan.run for two-factor: one
    block, or, like fast_run, the block at length q over the Good-Thomas
    rows (not aligned: the two-factor engine reads data in natural order)
    with inner runs as products, or direct's one product."""
    if isinstance(plan, UnitPlan):
        return direct([plan.coefficient], data, tally)
    if isinstance(plan, TwoFactorPlan):
        return two_factor_block(plan, as_signal(data).samples, scalars(tally))
    rows = good_thomas_rows(plan, data)
    return good_thomas_scatter(plan, two_factor_block(plan.block, rows, vectors(tally, two_factor)))


def rader_split_complex(plan, data, engine) -> list:
    """transforms.rader_dft at p = 3 (mod 4) with its half kernels typed
    complex: two length-h engine runs, h = (p - 1) / 2, through the engine's
    public runner, on the Good-Thomas rows' sum u and difference v.

    Row entry c of the twiddle kernel's 2 x h rows is kernel[c] at even c
    and its conjugate at odd c (kernel[t + h] = conj(kernel[t])), so the
    rows' half sum is complex(Re kernel[c], 0.0) and their half difference
    complex(0.0, +-Im kernel[c]).  Then A = run(u), C = run(v), and the
    bins of rows 0 and 1 take x[0] + (A + C) and x[0] + (A - C).
    """
    xs = as_signal(data).samples
    p = plan.length
    h = (p - 1) // 2
    order = good_thomas_order(2, h)
    half = plan.kernel.samples[:h]
    c1 = [complex(w.real, 0.0) for w in half]
    c2 = [complex(0.0, -w.imag if c % 2 else w.imag) for c, w in enumerate(half)]
    row0 = [xs[plan.input_order[k]] for k in order[:h]]
    row1 = [xs[plan.input_order[k]] for k in order[h:]]
    a = engine.prepare(c1)([x + y for x, y in zip(row0, row1)]).samples
    c = engine.prepare(c2)([x - y for x, y in zip(row0, row1)]).samples
    out = [complex(reduce(add, xs, 0))] * p
    combined = [u + v for u, v in zip(a, c)] + [u - v for u, v in zip(a, c)]
    for k, value in zip(order, combined):
        out[plan.output_order[k]] = xs[0] + value
    return out
