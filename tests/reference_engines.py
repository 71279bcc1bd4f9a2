"""Per-operation reference loops for the engines' data paths (tests only).

Each function here is the plain loop the corresponding engine code is
checked against: one ``counted_*`` call per scalar operation, in the order
the engine performs them.  The engines run the same arithmetic with inline
operators over slices and charge their tallies once per loop; the
reference-equality tests require bit-identical outputs and identical tallies.
"""

from primeconv.core import as_signal, reverse_permute
from primeconv.counting import OpTally, counted_add, counted_mul, counted_sub
from primeconv.polycrt import Polynomial, two_factor_system


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


def fast_execute(plan, data, tally: OpTally):
    """fast._execute: returns (aligned, base, upper table, sums, output)."""
    n = plan.length
    w = plan.diff_weights
    y = reverse_permute(data).samples

    total = y[0]
    for j in range(1, n):
        total = counted_add(total, y[j], tally)
    base = counted_mul(plan.kernel_mean, total, tally)

    upper = []
    for i in range(n - 1):
        row = []
        for j in range(i + 1, n):
            diff = counted_sub(y[j], y[i], tally)
            row.append(counted_mul(w[(i + j) % n], diff, tally))
        upper.append(row)

    sums = []
    for i in range(n - 1):
        acc = None
        for j in range(n):
            if j == i:
                continue
            if j > i:
                term = upper[i][j - i - 1]
                acc = term if acc is None else counted_add(acc, term, tally)
            else:
                term = upper[j][i - j - 1]
                acc = -term if acc is None else counted_sub(acc, term, tally)
        sums.append(acc)
    sums.append(-sum(sums))

    out = [counted_sub(base, value, tally) for value in sums]
    return y, base, upper, sums, out


def poly_mul(a: Polynomial, b: Polynomial, tally: OpTally) -> Polynomial:
    """polycrt.poly_mul: schoolbook product seeded by each slot's first term."""
    out = [None] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, av in enumerate(a.coeffs):
        for j, bv in enumerate(b.coeffs):
            term = counted_mul(av, bv, tally)
            k = i + j
            out[k] = term if out[k] is None else counted_add(out[k], term, tally)
    return Polynomial(out)


def poly_divmod(num: Polynomial, den: Polynomial, tally: OpTally):
    """polycrt.poly_divmod: long division against the monic divisor."""
    dd = den.degree()
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den.coeffs[dd]
    inv_lead = 1.0 / lead
    monic = [c * inv_lead for c in den.coeffs[:dd]]

    rem = list(num.coeffs)
    top = len(rem) - 1
    if top < dd:
        return Polynomial((0.0,)), Polynomial(rem)
    quot = [0.0] * (top - dd + 1)
    for k in range(top - dd, -1, -1):
        q = rem[k + dd]
        quot[k] = q
        for j in range(dd):
            rem[k + j] = counted_sub(rem[k + j], counted_mul(q, monic[j], tally), tally)
        rem[k + dd] = 0.0
    quotient = Polynomial(c * inv_lead for c in quot)
    remainder = Polynomial(rem[:dd] if dd > 0 else (0.0,))
    return quotient, remainder


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


def polynomial_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """Polynomial.__add__: coefficient-wise sum, the shorter side zero padded."""
    size = max(len(a.coeffs), len(b.coeffs))
    return Polynomial(x + y for x, y in zip(a._padded(size), b._padded(size)))


def two_factor(kernel, data, tally: OpTally):
    """polycrt.winograd_two_factor_convolution built from the loops above."""
    bs = as_signal(kernel).samples
    zs = as_signal(data).samples
    n = len(bs)
    system = two_factor_system(n)

    kernel_total = sum(bs)
    data_total = zs[0]
    for value in zs[1:]:
        data_total = counted_add(data_total, value, tally)
    point_product = counted_mul(kernel_total, data_total, tally)

    kernel_residue = Polynomial(reduce_mod_all_ones(bs, n, OpTally()))
    data_residue = Polynomial(reduce_mod_all_ones(zs, n, tally))
    product = poly_mul(kernel_residue, data_residue, tally)
    ones_residue = Polynomial(reduce_mod_all_ones(product.coeffs, n, tally))

    acc = Polynomial((0.0,))
    for r, weight in zip((Polynomial((point_product,)), ones_residue), system.recombiners):
        acc = polynomial_add(acc, r * weight)
    _, result = poly_divmod(acc, system.product, OpTally())
    coeffs = list(result.coeffs[:n])
    coeffs += [0.0] * (n - len(coeffs))
    return coeffs
