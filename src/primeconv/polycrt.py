"""The two-factor residue engine: Winograd's split of x^n - 1.

Index k of a coefficient list holds the coefficient of x**k.  A block of
length n scales by the float 1/n, so at n >= 2 results are floats or
complex numbers: ``Fraction`` input comes back as floats, and ``Decimal``
input raises a ``TypeError``, since a Decimal does not multiply a float.
The engine convolves through the factorization

    x^n - 1 = (x - 1) * Phi,    Phi = x^{n-1} + ... + x + 1,

whose two factors are coprime for every n >= 2 (Phi evaluates to n at
x = 1).  The residue mod x - 1 is the value at x = 1, one point product;
the residues mod Phi multiply by schoolbook, (n-1)^2 products.  With two
factors the Chinese-remainder recombination has a closed form: for a
residue r mod Phi (degree at most n - 2) and a point value v at x = 1,

    f = r + c * Phi,    c = (v - r(1)) / n,

so f[k] = r[k] + c below the top and f[n-1] = c.  That is 2n - 2
additions and one multiplication, all on data and all tallied.
``TwoFactorPlan.run`` holds the whole schedule (point product, both
reductions, product and recombination) and charges each phase once.

That is one block, used as is at prime-power lengths; like every block it
reads natural-order samples, and it needs no alignment.  Other lengths nest
through the engine-agnostic ``nesting.nest`` (Agarwal and Cooley, 1977): the
block runs at the smallest prime-power part q over length-m lane vectors
of the Good-Thomas map, each of its (q-1)^2 + 1 products is an inner run,
and its scaling by 1/q is m lane mults.  At 498 = 2 * 3 * 83 that is
67,675 mults against 247,011 for one block.  Length 1 is the nest over no
parts, one product: (1, 0), as direct.
"""

from functools import reduce
from itertools import repeat
from operator import add, sub
from typing import NamedTuple

from .counting import OpTally, Scalar
from .core import Signal, four_slot_pass
from .nesting import NestedPlan, UnitPlan, nest, nested_counts, run_plan


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
    # Slot order: slot k sums a[i] * b[k - i] over its i in ascending order,
    # seeded by its first product, with a on the left.  At step i slot k
    # reads rb[lb - 1 - k + i], the sample slot k - 1 read at step i - 1, so
    # four consecutive slots whose ranges of i line up share one register
    # pass.  Slots 0 .. low - 1 all start at i = 0 (lower triangle): the
    # pass runs to the group's first slot's last i, and the three later
    # slots add their last one to three products after it.  Slots from high
    # on all end at i = la - 1 (upper triangle): the first three slots take
    # their first one to three products before the pass.  Each triangle's
    # zero to three leftover slots are its shortest, one to three products
    # written out; the band between the triangles runs one slot at a time.
    rb = b[::-1]
    top = la + lb - 1
    low = min(la, lb)
    high = max(low, top - low)
    lead, trail = low % 4, (top - high) % 4
    a0, rest = a[0], a[1:]
    out = []
    if lead:
        out.append(a0 * b[0])
    if lead > 1:
        out.append(a0 * b[1] + a[1] * b[0])
    if lead > 2:
        out.append(a0 * b[2] + a[1] * b[1] + a[2] * b[0])
    for k in range(lead, low, 4):
        x1, x2, x3, x4 = b[k:k + 4]
        s0, s1, s2, s3 = four_slot_pass(rest, rb[lb - k:], x1, x2, x3,
                                        a0 * x1, a0 * x2, a0 * x3, a0 * x4)
        ai, aj, ak = a[k + 1:k + 4]
        out += (s0, s1 + ai * b[0], s2 + ai * b[1] + aj * b[0],
                s3 + ai * b[2] + aj * b[1] + ak * b[0])
    for k in range(low, high):
        # zip stops at the slot's last product: a runs out, or rb does.
        pairs = zip(a, rb[lb - 1 - k:]) if k < lb else zip(a[k - lb + 1:], rb)
        ai, x = next(pairs)
        acc = ai * x
        for ai, x in pairs:
            acc += ai * x
        out.append(acc)
    e1 = rb[0]
    if top - high >= 4:
        e2, e3, e4 = rb[1:4]
        tail = rb[4:]
        for i in range(high - lb + 1, la - 3 - trail, 4):  # a group's first i
            ai, aj, ak, am = a[i:i + 4]
            out += four_slot_pass(a[i + 4:], tail, e4, e3, e2,
                                  ai * e1 + aj * e2 + ak * e3 + am * e4,
                                  aj * e1 + ak * e2 + am * e3, ak * e1 + am * e2, am * e1)
    if trail > 2:
        out.append(a[-3] * e1 + a[-2] * rb[1] + a[-1] * rb[2])
    if trail > 1:
        out.append(a[-2] * e1 + a[-1] * rb[1])
    if trail:
        out.append(a[-1] * e1)
    tally.mults += la * lb
    tally.adds += (la - 1) * (lb - 1)
    return out


def two_factor_system(n: int) -> float:
    """The one per-length constant of the two-factor engine: 1/n, the
    inverse of the all-ones factor's value at x = 1."""
    return 1.0 / n


def _reduce_mod_all_ones(coeffs, n: int, tally: OpTally) -> list:
    """Residue mod x^{n-1} + ... + 1 using additions only.

    First wrap exponents n and up onto 0 and up (valid because the modulus
    divides x^n - 1), then eliminate the x^{n-1} term via
    x^{n-1} = -(x^{n-2} + ... + 1).  Takes n - 1 to 2n coefficients, so one
    wrap suffices, and returns exactly n - 1.
    """
    work = list(coeffs[:n])
    wrapped = coeffs[n:]
    work[:len(wrapped)] = map(add, work, wrapped)
    tally.adds += len(wrapped)
    if len(work) == n:
        work = list(map(sub, work[:n - 1], repeat(work[n - 1])))
        tally.adds += n - 1
    return work


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

    @classmethod
    def build(cls, b) -> "TwoFactorPlan":
        # Kernel-only arithmetic: precomputation, charged to a scratch tally.
        return cls(reduce(add, b, 0), tuple(_reduce_mod_all_ones(b, len(b), OpTally())))

    @staticmethod
    def counts(q: int) -> tuple[int, int, int]:
        # Products (the point product and the schoolbook), the 1/q scaling, adds.
        return ((q - 1) ** 2 + 1, 1, q * q + 2 * q - 4)

    @property
    def length(self) -> int:
        return len(self.kernel_residue) + 1

    def run(self, z, tally: OpTally) -> list:
        """The block's output on natural-order data ``z``: a point product,
        residues mod the all-ones factor multiplied by schoolbook, and the
        closed-form recombination f = r + c * Phi, c = (v - r(1)) / n."""
        n = self.length
        point_product = self.kernel_total * reduce(add, z)
        tally.adds += n - 1
        tally.mults += 1
        data_residue = _reduce_mod_all_ones(z, n, tally)
        product = poly_mul(self.kernel_residue, data_residue, tally)
        residue = _reduce_mod_all_ones(product, n, tally)
        c = (point_product - reduce(add, residue)) * two_factor_system(n)
        tally.mults += 1
        tally.adds += 2 * n - 2
        return [r + c for r in residue] + [c]


def two_factor_plan(kernel) -> "TwoFactorPlan | NestedPlan | UnitPlan":
    """Build the plan for a kernel of length n: ``UnitPlan`` at n = 1, one
    block when n is a prime power, nested over its prime-power parts otherwise.

    All arithmetic here depends on the kernel only, so it is precomputation
    and contributes nothing to execution tallies.
    """
    return nest(kernel, TwoFactorPlan)


def winograd_two_factor_convolution(plan: "TwoFactorPlan | NestedPlan | UnitPlan", data,
                                    tally: OpTally | None = None) -> Signal:
    """Cyclic convolution through the two-factor residue split.

    A block of length n tallies exactly (n-1)^2 + 2 multiplications: the
    point product at x = 1, the schoolbook product of the all-ones
    residues, and the recombination's scaling by 1/n.  Kernel residues are
    in the plan; reductions, the data sum and the rest of the
    recombination are additions.  Nesting q over m makes the (q-1)^2 + 1
    products inner runs and the scaling m mults; two_factor_predicted_counts
    gives the totals.

    The split is valid for every block length n >= 2, prime or composite.
    Prime n is the case the method is published for: there x^{n-1} + ... + 1
    is irreducible over the rationals, so no finer split exists.
    """
    return run_plan(plan, data, tally)


def two_factor_predicted_counts(n: int) -> tuple[int, int]:
    """(multiplications, additions) the two-factor path tallies at length n.

    One block costs ((n-1)^2 + 2, n^2 + 2n - 4).  Nesting q over m costs
    M(q x m) = ((q-1)^2 + 1)M(m) + m and A(q x m) = A(q)m + ((q-1)^2 + 1)A(m).
    """
    return nested_counts(n, TwoFactorPlan)
