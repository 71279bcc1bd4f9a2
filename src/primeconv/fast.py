"""Cyclic convolution in n(n-1)/2 + 1 multiplications per block, nested
over the coprime prime-power parts of composite lengths.

For a fixed kernel ``b`` the cyclic product with data ``z`` splits into a
rank-one part and an antisymmetric correction:

    out[i] = base - correction[i]

where ``base = mean(b) * sum(z)`` costs the single general multiplication,
and the corrections are signed sums over the strictly upper triangular
table

    table[i][j] = w[(i + j) mod n] * (y[j] - y[i]),    0 <= i < j <= n-1,

with ``y`` the reversal-aligned data and ``w[k] = mean(b) - b[k]``
precomputed from the kernel alone.  Swapping i and j only flips the sign
of the difference, so the strict upper triangle carries the whole table;
that is where the multiplication count n(n-1)/2 comes from.  The
correction components also sum to zero, which pins the last one without
any new information.  This is one block; it is exact for every n >= 2 and
only uses ring operations and a division by n.

A prime power, 4, 8 or 9 included, runs as one block; other lengths nest
through ``nesting``, and multiplications multiply across levels, so
498 = 2 * 3 * 83 costs 2 * 4 * 3404 = 27,232 against 123,754 for one block.
Length 1 is the nest over no parts, one product: (1, 0), as direct.
"""

from functools import reduce
from math import prod
from operator import add
from typing import NamedTuple

from .counting import OpTally, Scalar
from .core import Signal, factorize
from .nesting import NestedPlan, UnitPlan, nest, nested_counts, run_plan


class CompositeLengthWarning(UserWarning):
    """Never raised: a composite prime-power part (4, 8, 9, ...) runs as
    one exact block.  Kept for its one remaining reader, perfbench/run.py,
    which filters it by name.
    """


class FastPlan(NamedTuple):
    """Precomputed kernel data for one block of the engine.

    Plans are NamedTuples, not frozen dataclasses: the first frozen
    dataclass in a process costs about 1 ms to create, on top of about
    8 ms to import ``dataclasses``, and every CLI run imports the package
    afresh.  Every field is kernel data, scalar or tuple, so
    ``nest`` can build a block lane by lane.

    Attributes:
        diff_weights: w[k] = kernel_mean - kernel[k]; the weights multiply
            pairwise data differences.  They sum to zero up to roundoff.
        kernel_mean: sum(kernel) / n; multiplies the data sum to form the
            rank-one term.
    """

    diff_weights: tuple
    kernel_mean: Scalar
    engine = "fast-prime"

    @property
    def length(self) -> int:
        return len(self.diff_weights)

    @classmethod
    def build(cls, b) -> "FastPlan":
        # Kernel-only arithmetic: precomputation, never tallied.
        mean = reduce(add, b, 0) / len(b)
        return cls(tuple(mean - value for value in b), mean)

    @staticmethod
    def counts(q: int) -> tuple[int, int, int]:
        return (q * (q - 1) // 2 + 1, 0, 3 * q * (q - 1) // 2 + 1)

    def run(self, z, tally: OpTally) -> list:
        """The block's output on natural-order data ``z``, which it aligns:
        scalars, or nesting's lane vectors when the plan is a nested plan's
        block."""
        # Each loop does its arithmetic inline (no Python call per scalar
        # operation), keeps the operation order of the schedule described in
        # the module docstring, and charges the tally once with that loop's
        # exact count.
        y = z[:1] + z[:0:-1]
        n = self.length

        base = self.kernel_mean * reduce(add, y)
        tally.adds += n - 1
        tally.mults += 1

        # Signed fold over row i: -table[j][i] for j < i, then +table[i][j] for
        # j > i, ascending j.  Each pair (i, j) is visited once: table[i][j] is
        # added to row i's accumulator and subtracted from col[j], which holds
        # -table[0][j] - ... - table[i][j] after row i.  So the table is never
        # held, and row i starts from col[i], its finished column part.  Row 0
        # seeds its accumulator with its first entry and col by a sign flip
        # (bookkeeping, not arithmetic).  Column n - 1 is the zero-sum correction
        # below, so the j = n - 1 entry of each row has no column.
        #
        # Rows 1 .. n - 2 run in groups of four, a..d, so that four pairs share
        # each load and store of col[j].  A group first takes its six in-group
        # pairs, row by row, which finishes the column parts of b, c and d
        # before those rows start from them.  One pass over j > d then forms
        # the four terms of column j, adds each to its row's accumulator and
        # subtracts them from col[j] in row order.  So every accumulator, row or
        # column, takes the same operations in the same order as one row at a
        # time would give it; only the order in which terms are formed changes,
        # and on lane vectors each term is an independent inner run.  Fewer
        # than four remaining rows run one at a time.
        w2 = self.diff_weights * 2
        y0 = y[0]
        first = [wj * (yj - y0) for wj, yj in zip(w2[1:n], y[1:])]
        acc = first[0]
        for term in first[1:]:
            acc += term
        sums = [acc]
        col = [None, *[-term for term in first[:-1]]]
        last = n - 1
        y_last = y[last]
        grouped = 1 + (n - 2) // 4 * 4  # rows 1 .. grouped - 1 run in fours
        for a in range(1, grouped, 4):
            b, c, d = a + 1, a + 2, a + 3
            ya, yb, yc, yd = y[a:a + 4]
            wa, wb, wc, wd = w2[a:a + n], w2[b:b + n], w2[c:c + n], w2[d:d + n]
            ab, ac, ad = wa[b] * (yb - ya), wa[c] * (yc - ya), wa[d] * (yd - ya)
            bc, bd = wb[c] * (yc - yb), wb[d] * (yd - yb)
            cd = wc[d] * (yd - yc)
            sa = col[a] + ab + ac + ad
            sb = col[b] - ab + bc + bd
            sc = col[c] - ac - bc + cd
            sd = col[d] - ad - bd - cd
            for j in range(d + 1, last):
                yj = y[j]
                ta = wa[j] * (yj - ya)
                tb = wb[j] * (yj - yb)
                tc = wc[j] * (yj - yc)
                td = wd[j] * (yj - yd)
                sa += ta
                sb += tb
                sc += tc
                sd += td
                col[j] = col[j] - ta - tb - tc - td
            sums += (sa + wa[last] * (y_last - ya), sb + wb[last] * (y_last - yb),
                     sc + wc[last] * (y_last - yc), sd + wd[last] * (y_last - yd))
        for i in range(grouped, last):
            yi = y[i]
            wi = w2[i:i + n]  # wi[j] = w[(i + j) mod n]
            acc = col[i]
            for j in range(i + 1, last):
                term = wi[j] * (y[j] - yi)
                acc += term
                col[j] -= term
            sums.append(acc + wi[last] * (y_last - yi))
        pairs = n * (n - 1) // 2
        tally.adds += pairs + (n - 1) * (n - 2)
        tally.mults += pairs
        # The corrections are constrained to sum to zero; reconstructing the
        # last one resolves a linear dependency rather than computing anything
        # new, so it stays off the tally (see docs/counting_model.md).  A plain
        # left fold from 0, not sum(): from Python 3.12 sum() compensates exact
        # floats, which would change the bits and break the exact cancellation.
        sums.append(-reduce(add, sums, 0))

        out = [base - value for value in sums]
        tally.adds += n
        return out


def plan_create(kernel) -> "FastPlan | NestedPlan | UnitPlan":
    """Build the plan for a kernel of length n: ``UnitPlan`` at n = 1, one
    block when n is a prime power (4, 8, 9, ... included), nested over its
    prime-power parts otherwise.

    All arithmetic here depends on the kernel only, so it is precomputation
    and contributes nothing to execution tallies.
    """
    return nest(kernel, FastPlan)


def fast_cyclic_convolution(plan: "FastPlan | NestedPlan | UnitPlan", data,
                            tally: OpTally | None = None) -> Signal:
    """Run the reduced-multiplication engine against ``data``.

    Tallies exactly predicted_counts(n) = (M(n), A(n)): for a single block
    M(n) = n(n-1)/2 + 1 multiplications and A(n) = 3n(n-1)/2 + 1 additions,
    and nesting q over m gives M(q)M(m) and A(q)m + M(q)A(m).
    """
    return run_plan(plan, data, tally)


def predicted_counts(n: int) -> tuple[int, int]:
    """Closed-form (multiplications, additions) for a length-n run.

    A block of length q costs M(q) = q(q-1)/2 + 1 and A(q) = 3q(q-1)/2 + 1;
    nesting q over m costs M(q)M(m) and A(q)m + M(q)A(m) from (1, 0) at n = 1.
    """
    return nested_counts(n, FastPlan)


def multiplication_lower_bound(n: int) -> int:
    """Winograd's minimum 2n - d(n) multiplications for length-n cyclic
    convolution by a bilinear algorithm over the rationals, where d(n)
    counts the divisors of n (the irreducible factors of x^n - 1): the
    product of e + 1 over the prime powers p**e of ``factorize(n)``, 1 at
    n = 1.  Reported alongside measured counts; never used as a pass/fail
    gate."""
    return 2 * n - prod(e + 1 for _, e in factorize(n))
