"""The two-factor residue engine: Winograd's split of x^n - 1.

Coefficients are floats or complex numbers, index k holding the
coefficient of x**k.  The engine convolves through the factorization

    x^n - 1 = (x - 1) * Phi,    Phi = x^{n-1} + ... + x + 1,

whose two factors are coprime for every n >= 2 (Phi evaluates to n at
x = 1).  The residue mod x - 1 is the value at x = 1, one point product;
the residues mod Phi multiply by schoolbook, (n-1)^2 products.  With two
factors the Chinese-remainder recombination has a closed form: for a
residue r mod Phi (degree at most n - 2) and a point value v at x = 1,

    f = r + c * Phi,    c = (v - r(1)) / n,

so f[k] = r[k] + c below the top and f[n-1] = c.  That is 2n - 2
additions and one multiplication, all on data and all tallied.

That is one block, used as is at prime-power lengths; like every block it
reads natural-order samples, and it needs no alignment.  Other lengths nest
through the engine-agnostic ``nesting.nest`` (Agarwal and Cooley, 1977): the
block runs at the smallest prime-power part q over length-m lane vectors
of the Good-Thomas map, each of its (q-1)^2 + 1 products is an inner run,
and its scaling by 1/q is m lane mults.  At 498 = 2 * 3 * 83 that is
67,675 mults against 247,011 for one block.
"""

from functools import reduce
from itertools import repeat
from operator import add, sub
from typing import NamedTuple

from .counting import OpTally, Scalar
from .core import Signal
from .nesting import NestedPlan, kernel_blocks, nest, nested_counts, require_length, run_plan


def poly_mul(a, b, tally: OpTally | None = None) -> list:
    """Schoolbook product of two coefficient sequences, tallying every
    coefficient multiply and add.

    Counts are driven by the sequence lengths: len(a)*len(b)
    multiplications and (len(a)-1)*(len(b)-1) accumulating additions.
    Both operands need at least one coefficient.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        raise ValueError(f"poly_mul needs at least one coefficient in each operand, "
                         f"got lengths {la} and {lb}")
    if tally is None:
        tally = OpTally()
    # Row order: row i adds a[i] * b[k - i] to slots k = i .. i + lb - 1, so
    # slot k sums its products in ascending i, seeded by its first one, with
    # a on the left.  Rows run in groups of four, i..i+3: slots i, i+1 and
    # i+2 take their one to three new products inline, one pass adds all
    # four to each of slots i+3 .. i+lb-2, and the four new top slots are
    # appended, each seeded by its first product.  Leftover rows, and every
    # row when lb < 5, run one at a time.
    out = [a[0] * bj for bj in b]
    i = 1
    if lb >= 5:
        b0, b1, b2 = b[0], b[1], b[2]
        e1, e2, e3, e4 = b[-1], b[-2], b[-3], b[-4]
        b1s, b2s, b3s = b[1:], b[2:], b[3:]
        while i + 3 < la:
            ai, aj, ak, am = a[i:i + 4]
            o0, o1, o2 = out[i:i + 3]
            middle = [o + ai * x0 + aj * x1 + ak * x2 + am * x3
                      for o, x0, x1, x2, x3 in zip(out[i + 3:], b3s, b2s, b1s, b)]
            out[i:] = (o0 + ai * b0, o1 + ai * b1 + aj * b0, o2 + ai * b2 + aj * b1 + ak * b0)
            out += middle
            out += (ai * e1 + aj * e2 + ak * e3 + am * e4, aj * e1 + ak * e2 + am * e3,
                    ak * e1 + am * e2, am * e1)
            i += 4
    for i in range(i, la):
        ai = a[i]
        out[i:] = [o + ai * bj for o, bj in zip(out[i:], b)]
        out.append(ai * b[-1])
    tally.mults += la * lb
    tally.adds += (la - 1) * (lb - 1)
    return out


def two_factor_system(n: int) -> float:
    """The one per-length constant of the two-factor engine: 1/n, the
    inverse of the all-ones factor's value at x = 1."""
    require_length(n)
    return 1.0 / n


def _reduce_mod_all_ones(coeffs, n: int, tally: OpTally | None = None) -> list:
    """Residue mod x^{n-1} + ... + 1 using additions only.

    First wrap exponents mod n (valid because the modulus divides x^n - 1),
    then eliminate the x^{n-1} term via x^{n-1} = -(x^{n-2} + ... + 1).
    Returns exactly n - 1 coefficients.
    """
    if tally is None:
        tally = OpTally()
    work = list(coeffs[:n])
    for start in range(n, len(coeffs), n):
        wrapped = coeffs[start:start + n]
        work[:len(wrapped)] = map(add, work, wrapped)
    tally.adds += max(0, len(coeffs) - n)
    if len(work) == n:
        work = list(map(sub, work[:n - 1], repeat(work[n - 1])))
        tally.adds += n - 1
    else:
        work = work + [0.0] * (n - 1 - len(work))
    return work


def two_factor_recombine(point, residue, tally: OpTally | None = None) -> list:
    """The length-n sequence with value ``point`` at x = 1 and residue
    ``residue`` (n - 1 coefficients) mod the all-ones factor.

    Tallies 1 multiplication and 2n - 2 additions.
    """
    if tally is None:
        tally = OpTally()
    n = len(residue) + 1
    c = (point - reduce(add, residue)) * two_factor_system(n)
    tally.mults += 1
    tally.adds += 2 * n - 2
    return [r + c for r in residue] + [c]


class TwoFactorPlan(NamedTuple):
    """Precomputed kernel data for one two-factor block of length n.

    Attributes:
        kernel_total: the kernel's value at x = 1, its sample sum; it
            multiplies the data's value there.
        kernel_residue: the kernel mod the all-ones factor, n - 1
            coefficients.
    """

    kernel_total: Scalar
    kernel_residue: tuple
    engine = "winograd-two-factor"

    @property
    def length(self) -> int:
        return len(self.kernel_residue) + 1

    def run(self, z, tally: OpTally) -> list:
        """The block's output on data ``z``: a point product, residues mod
        the all-ones factor multiplied by schoolbook, and the closed-form
        recombination."""
        n = self.length
        point_product = self.kernel_total * reduce(add, z)
        tally.adds += n - 1
        tally.mults += 1
        data_residue = _reduce_mod_all_ones(z, n, tally)
        product = poly_mul(self.kernel_residue, data_residue, tally)
        ones_residue = _reduce_mod_all_ones(product, n, tally)
        return two_factor_recombine(point_product, ones_residue, tally)


def _block(b: tuple) -> TwoFactorPlan:
    # Kernel-only arithmetic: precomputation, never tallied.
    return TwoFactorPlan(reduce(add, b, 0), tuple(_reduce_mod_all_ones(b, len(b))))


def two_factor_plan(kernel) -> "TwoFactorPlan | NestedPlan":
    """Build the plan for a kernel of length n >= 2: one block when n is a
    prime power, nested over its prime-power parts otherwise.

    All arithmetic here depends on the kernel only, so it is precomputation
    and contributes nothing to execution tallies.
    """
    return nest(*kernel_blocks(kernel), _block)


def winograd_two_factor_convolution(plan: "TwoFactorPlan | NestedPlan", data,
                                    tally: OpTally | None = None) -> Signal:
    """Cyclic convolution through the two-factor residue split.

    A block of length n tallies exactly (n-1)^2 + 2 multiplications: the
    point product at x = 1, the schoolbook product of the all-ones
    residues, and the recombination's scaling by 1/n.  Kernel residues are
    in the plan; reductions, the data sum and the rest of the
    recombination are additions.  Nesting q over m makes the (q-1)^2 + 1
    products inner runs and the scaling m mults; two_factor_predicted_counts
    gives the totals.

    The split is valid for every n >= 2, prime or composite.  Prime n is
    the case the method is published for: there x^{n-1} + ... + 1 is
    irreducible over the rationals, so no finer split exists.
    """
    return run_plan(plan, data, tally)


def _block_counts(q: int) -> tuple[int, int, int]:
    # Products (the point product and the schoolbook), the 1/q scaling, adds.
    return ((q - 1) ** 2 + 1, 1, q * q + 2 * q - 4)


def two_factor_predicted_counts(n: int) -> tuple[int, int]:
    """(multiplications, additions) the two-factor path tallies at length n.

    One block costs ((n-1)^2 + 2, n^2 + 2n - 4).  Nesting q over m costs
    M(q x m) = ((q-1)^2 + 1)M(m) + m and A(q x m) = A(q)m + ((q-1)^2 + 1)A(m).
    """
    return nested_counts(n, _block_counts)
