"""Cyclic convolution in n(n-1)/2 + 1 multiplications for any length n >= 2.

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
any new information.

The scheme is exact for every n >= 2.  Prime n is simply the regime where
the length cannot be factored into cheaper short convolutions, so the
count above is the interesting one; composite lengths work but trigger an
advisory warning.
"""

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import add

from .counting import OpTally, Scalar
from .core import Signal, as_signal, is_prime, reverse_permute


class CompositeLengthWarning(UserWarning):
    """Advisory: the requested length is composite.

    The engine stays correct, but composite lengths admit specialized
    factorizations with fewer multiplications than this scheme.
    """


@dataclass(frozen=True)
class FastPlan:
    """Precomputed kernel data for the reduced-multiplication engine.

    Attributes:
        length: signal length n (>= 2).
        diff_weights: w[k] = kernel_mean - kernel[k]; the weights multiply
            pairwise data differences.  They sum to zero up to roundoff.
        kernel_mean: sum(kernel) / n; multiplies the data sum to form the
            rank-one term.
    """

    length: int
    diff_weights: tuple
    kernel_mean: Scalar


def plan_create(kernel) -> FastPlan:
    """Build a FastPlan from a kernel of length n >= 2.

    All arithmetic here depends on the kernel only, so it is precomputation
    and contributes nothing to execution tallies.
    """
    b = as_signal(kernel)
    n = len(b)
    if n < 2:
        raise ValueError(f"the reduced-multiplication engine needs length >= 2, got {n}")
    if not is_prime(n):
        warnings.warn(
            f"length {n} is composite; results stay exact, but specialized "
            "composite-length factorizations need fewer multiplications",
            CompositeLengthWarning,
            stacklevel=2,
        )
    mean = reduce(add, b.samples, 0) / n
    weights = tuple(mean - value for value in b.samples)
    return FastPlan(n, weights, mean)


@dataclass(frozen=True)
class ConvolutionTrace:
    """Intermediate values of one engine run, for verification tooling.

    Fields mirror the execution: ``aligned`` is the reversal-aligned data,
    ``base`` the rank-one term, ``pair_table`` the strict upper triangle of
    weighted differences (row i holds entries for j = i+1 .. n-1),
    ``component_sums`` the correction vector whose entries sum to zero
    exactly as computed, and ``output`` the convolution result.
    """

    aligned: tuple
    base: Scalar
    pair_table: tuple
    component_sums: tuple
    output: Signal


def _pair_rows(plan: FastPlan, y):
    """Rows of the strict upper triangle, built lazily one at a time.

    Serves ``trace_convolution`` only; the engine computes the same entries
    inside its single pass over the pairs.  Row i holds
    table[i][j] = w[(i + j) mod n] * (y[j] - y[i]) for j = i+1 .. n-1; the
    doubled weights turn (i + j) mod n into the slice w2[2i + 1 : i + n].
    """
    n = plan.length
    w2 = plan.diff_weights * 2
    return ([wk * (yj - yi) for wk, yj in zip(w2[2 * i + 1:i + n], y[i + 1:])]
            for i, yi in enumerate(y[:n - 1]))


def _execute(plan: FastPlan, z: Signal, tally: OpTally):
    # Each loop does its arithmetic inline (no Python call per scalar
    # operation), keeps the operation order of the schedule described in the
    # module docstring, and charges the tally once with that loop's exact
    # count.
    n = plan.length
    y = reverse_permute(z).samples

    base = plan.kernel_mean * reduce(add, y)
    tally.adds += n - 1
    tally.mults += 1

    # Signed fold over row i: -table[j][i] for j < i, then +table[i][j] for
    # j > i, ascending j.  One pass visits each pair (i, j) once: it computes
    # table[i][j], adds it to row i's accumulator and subtracts it from
    # col[j], which holds -table[0][j] - ... - table[i][j] after row i.  So
    # the table is never held, and row i starts from col[i], its finished
    # column part.  Row 0 seeds its accumulator with its first entry and
    # col by a sign flip (bookkeeping, not arithmetic).  Column n - 1 is the
    # zero-sum correction below, so the j = n - 1 entry of each row has no
    # column.
    w2 = plan.diff_weights * 2
    y0 = y[0]
    first = [wj * (yj - y0) for wj, yj in zip(w2[1:n], y[1:])]
    acc = first[0]
    for term in first[1:]:
        acc += term
    sums = [acc]
    col = [None, *[-term for term in first[:-1]]]
    for i in range(1, n - 1):
        yi = y[i]
        wi = w2[i:i + n]  # wi[j] = w[(i + j) mod n]
        acc = col[i]
        for j in range(i + 1, n - 1):
            term = wi[j] * (y[j] - yi)
            acc += term
            col[j] -= term
        sums.append(acc + wi[n - 1] * (y[n - 1] - yi))
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
    return y, base, sums, out


def fast_cyclic_convolution(plan: FastPlan, data, tally: OpTally | None = None) -> Signal:
    """Run the reduced-multiplication engine against ``data``.

    Tallies exactly n(n-1)/2 + 1 multiplications and 3n(n-1)/2 + 1
    additions, matching predicted_counts(n).
    """
    z = as_signal(data)
    if len(z) != plan.length:
        raise ValueError(f"plan length {plan.length} does not match data length {len(z)}")
    if tally is None:
        tally = OpTally()
    *_, out = _execute(plan, z, tally)
    return Signal(out)


def trace_convolution(plan: FastPlan, data) -> ConvolutionTrace:
    """Run the engine and expose its intermediates (plain mode)."""
    z = as_signal(data)
    if len(z) != plan.length:
        raise ValueError(f"plan length {plan.length} does not match data length {len(z)}")
    y, base, sums, out = _execute(plan, z, OpTally())
    return ConvolutionTrace(
        aligned=tuple(y),
        base=base,
        pair_table=tuple(tuple(row) for row in _pair_rows(plan, y)),
        component_sums=tuple(sums),
        output=Signal(out),
    )


def predicted_counts(n: int) -> tuple[int, int]:
    """Closed-form (multiplications, additions) for a length-n run."""
    if n < 2:
        raise ValueError(f"the reduced-multiplication engine needs length >= 2, got {n}")
    return (n * (n - 1) // 2 + 1, 3 * n * (n - 1) // 2 + 1)


def multiplication_lower_bound(n: int) -> int:
    """Proven lower bound 2(n-1) on multiplications for length-n cyclic
    convolution by a commutative bilinear algorithm.  Reported alongside
    measured counts; never used as a pass/fail gate."""
    if n < 2:
        raise ValueError(f"length must be >= 2, got {n}")
    return 2 * (n - 1)
