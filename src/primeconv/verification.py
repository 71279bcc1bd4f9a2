"""Materialized-matrix oracles, single-block traces and the suites behind
``primeconv verify``.

Production code never builds these matrices; they exist so the optimized
paths can be checked against first principles: the shift operator as an
explicit matrix, the seed-column matrix behind the identity decomposition,
and the plain cyclic matrix form of convolution.

The shift and seed-column matrices hold integers, so on rational inputs
the oracles are exact.  ``verify`` draws real samples, converts them to
``Fraction`` without rounding, and checks the paper's matrix-form lemmas
(pair-table antisymmetry, zero-sum corrections, the identity decomposition
and the seed matrix's rank) as exact identities; only the equivalence,
CRT and Rader suites compare floats against a tolerance.
"""

from fractions import Fraction
from functools import reduce
from operator import add
from random import Random
from typing import NamedTuple

from .core import Signal, as_signal, direct_cyclic_convolution, max_relative_error
from .counting import OpTally, Scalar
from .fast import FastPlan, _block, _execute
from .nesting import kernel_blocks
from .polycrt import two_factor_plan, two_factor_recombine
from .transforms import ConvolutionEngine, cyclic_convolution, dft_plan, naive_dft, rader_dft


def substream(seed: int, index: int) -> Random:
    """Deterministic per-task generator: Random((seed << 32) + index)."""
    return Random(((seed & 0xFFFFFFFFFFFFFFFF) << 32) + index)


def real_vector(rng: Random, n: int) -> list:
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def complex_vector(rng: Random, n: int) -> list:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Single-block traces.

def reverse_permute(signal) -> tuple:
    """Reversal alignment: out[0] = in[0], out[k] = in[n - k].

    The map is its own inverse.  It is pure index shuffling, so it never
    contributes to an operation tally, and it returns a plain tuple: a
    permutation cannot make a checked sample non-finite.
    """
    z = as_signal(signal).samples
    return z[:1] + z[:0:-1]


def block_plan(kernel) -> FastPlan:
    """Build a single-block fast-prime plan for a kernel of length n >= 2,
    whatever the factors of n; the pair-table tooling is defined on these."""
    return _block(kernel_blocks(kernel, FastPlan.engine)[0])


class ConvolutionTrace(NamedTuple):
    """Intermediate values of one single-block run.

    Fields mirror the execution: ``aligned`` is the reversal-aligned data,
    ``base`` the rank-one term, ``component_sums`` the correction vector
    whose entries sum to zero exactly as computed, and ``output`` the
    convolution result.
    """

    aligned: tuple
    base: Scalar
    component_sums: tuple
    output: Signal


def trace_convolution(plan: FastPlan, data) -> ConvolutionTrace:
    """Run a single-block plan and expose its intermediates (plain mode)."""
    if not isinstance(plan, FastPlan):
        raise ValueError(f"trace_convolution needs a single-block plan; the length-"
                         f"{plan.length} plan is nested (build one with block_plan)")
    z = as_signal(data)
    if len(z) != plan.length:
        raise ValueError(f"plan length {plan.length} does not match data length {len(z)}")
    y = reverse_permute(z)
    base, sums, out = _execute(plan, y, OpTally())
    return ConvolutionTrace(y, base, tuple(sums), Signal(out))


# ---------------------------------------------------------------------------
# Materialized-matrix oracles.

def shift_matrix(n: int) -> list:
    """The cyclic shift operator as an explicit n x n matrix."""
    return [[1 if r == (c + 1) % n else 0 for c in range(n)] for r in range(n)]


def seed_vector(n: int) -> list:
    """(1 - n, 1, ..., 1): all-ones minus n at position zero; sums to zero."""
    return [1 - n] + [1] * (n - 1)


def _dot(u, v):
    return reduce(add, (a * b for a, b in zip(u, v)), 0)


def mat_vec(matrix, vector) -> list:
    # A row skips its zero entries: each is a product 0 * v that leaves an
    # exact sum unchanged, and the shift matrix is all zeros but one per row.
    return [reduce(add, (a * v for a, v in zip(row, vector) if a), 0) for row in matrix]


def _shift_powers(vector):
    """Yield shift^i @ vector for i = 0 .. len(vector) - 1, each from the last."""
    shift = shift_matrix(len(vector))
    yield vector
    for _ in range(len(vector) - 1):
        vector = mat_vec(shift, vector)
        yield vector


def seed_column_matrix(n: int) -> list:
    """Matrix whose column i is the shift operator applied i times to the seed."""
    columns = list(_shift_powers(seed_vector(n)))
    return [[columns[c][r] for c in range(n)] for r in range(n)]


def cyclic_matrix(kernel) -> list:
    """Matrix form of cyclic convolution: row r is the kernel rotated left r."""
    b = as_signal(kernel).samples
    n = len(b)
    return [[b[(r + c) % n] for c in range(n)] for r in range(n)]


def matrix_rank(matrix) -> int:
    """Exact rank by Gaussian elimination over the rationals: every entry
    converts to a Fraction without rounding, and any nonzero is a pivot."""
    work = [[Fraction(value) for value in row] for row in matrix]
    rows = len(work)
    cols = len(work[0])
    rank = 0
    for col in range(cols):
        best = next((r for r in range(rank, rows) if work[r][col] != 0), None)
        if best is None:
            continue
        work[rank], work[best] = work[best], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, rows):
            factor = work[r][col] / pivot
            for c in range(col, cols):
                work[r][c] -= factor * work[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def identity_decomposition_residual(n: int) -> int:
    """Largest entry, in absolute value, of the integer matrix
    ones*ones^T - seed_column_matrix(n) - n*I: zero exactly when the
    identity decomposition holds."""
    f = seed_column_matrix(n)
    return max(abs(1 - f[r][c] - (n if r == c else 0)) for r in range(n) for c in range(n))


def explicit_plan_weights(kernel) -> tuple:
    """Kernel weights from the materialized shift/seed matrices.

    weight[i] = (kernel . shift^i seed) / n, the definition the closed form
    in plan_create is checked against.
    """
    b = as_signal(kernel).samples
    n = len(b)
    return tuple(_dot(b, col) / n for col in _shift_powers(seed_vector(n)))


def correction_oracle(kernel, data) -> tuple:
    """All n correction components from materialized matrices.

    component[i] = kernel . shift^i (seed_column_matrix @ aligned) / n where
    aligned is the reversal-permuted data.
    """
    b = as_signal(kernel).samples
    n = len(b)
    y = list(reverse_permute(data))
    return tuple(_dot(b, vec) / n for vec in _shift_powers(mat_vec(seed_column_matrix(n), y)))


def pair_table_rows(plan: FastPlan, y) -> tuple:
    """Row sums of the full pair table of a single-block plan on aligned
    data ``y``, both triangles: row[i] = sum_j w[(i + j) mod n] * (y[j] - y[i]).

    The engine folds the strict upper triangle only, so by antisymmetry its
    component sums equal these rows.
    """
    w = plan.diff_weights
    n = plan.length
    return tuple(reduce(add, (w[(i + j) % n] * (y[j] - y[i]) for j in range(n)), 0)
                 for i in range(n))


# ---------------------------------------------------------------------------
# Verification suites.

class SuiteResult(NamedTuple):
    name: str
    passed: bool
    max_error: float | None
    detail: str


def _fmt_sizes(sizes) -> str:
    return ",".join(str(n) for n in sizes)


def _equivalence_suite(name, sizes, trials, seed, stream_index, tol, inject_fault, complex_data):
    rng = substream(seed, stream_index)
    make = complex_vector if complex_data else real_vector
    worst = 0.0
    for n in sizes:
        kernel = make(rng, n)
        # The injected fault plans fast-prime from a kernel with its first
        # sample moved by 1e-3, which moves every output at every length.
        fast_kernel = [kernel[0] + 1e-3, *kernel[1:]] if inject_fault else kernel
        runners = (ConvolutionEngine.FAST_PRIME.prepare(fast_kernel),
                   ConvolutionEngine.WINOGRAD_TWO_FACTOR.prepare(kernel))
        for _ in range(trials):
            data = make(rng, n)
            want = direct_cyclic_convolution(kernel, data)
            for run in runners:
                worst = max(worst, max_relative_error(run(data), want))
    return SuiteResult(
        name=name,
        passed=worst <= tol,
        max_error=worst,
        detail=f"sizes={_fmt_sizes(sizes)} trials={trials} tol={tol:.1e}",
    )


def _exact_suite(name, sizes, mismatches):
    return SuiteResult(name=name, passed=mismatches == 0, max_error=None,
                       detail=f"sizes={sizes} mismatches={mismatches}")


def _count_suite(sizes, seed, stream_index):
    rng = substream(seed, stream_index)
    mismatches = 0
    for n in sizes:
        kernel = real_vector(rng, n)
        data = real_vector(rng, n)
        for engine in ConvolutionEngine:
            tally = OpTally()
            cyclic_convolution(kernel, data, engine, tally)
            mismatches += tally.counts != engine.predicted_counts(n)
    return _exact_suite("count-exactness", _fmt_sizes(sizes), mismatches)


def _exact_draws(seed, stream_index, sizes):
    """Per size, a kernel and data drawn as real_vector, converted exactly to Fraction."""
    rng = substream(seed, stream_index)
    for n in sizes:
        yield [Fraction(v) for v in real_vector(rng, n)], [Fraction(v) for v in real_vector(rng, n)]


def _antisymmetry_suite(seed, stream_index):
    mismatches = 0
    for kernel, data in _exact_draws(seed, stream_index, range(2, 17)):
        plan = block_plan(kernel)
        trace = trace_convolution(plan, data)
        mismatches += trace.component_sums != pair_table_rows(plan, trace.aligned)
    return _exact_suite("pair-table-antisymmetry", "2-16", mismatches)


def _component_sum_suite(seed, stream_index):
    mismatches = 0
    for kernel, data in _exact_draws(seed, stream_index, range(2, 17)):
        oracle = correction_oracle(kernel, data)
        engine = trace_convolution(block_plan(kernel), data).component_sums
        mismatches += reduce(add, oracle, 0) != 0 or oracle != engine
    return _exact_suite("component-sums-zero", "2-16", mismatches)


def _identity_suite():
    mismatches = sum(identity_decomposition_residual(n) != 0 for n in range(2, 13))
    return _exact_suite("identity-decomposition", "2-12", mismatches)


def _rank_suite():
    mismatches = 0
    for n in range(2, 13):
        f = seed_column_matrix(n)
        mismatches += any(map(sum, zip(*f))) or matrix_rank(f) != n - 1
    return _exact_suite("seed-matrix-rank", "2-12", mismatches)


def _crt_suite(seed, stream_index, tol):
    rng = substream(seed, stream_index)
    primes = (2, 3, 5, 7, 11, 13)
    worst = 0.0
    for p in primes:
        for _ in range(10):
            target = real_vector(rng, p)
            split = two_factor_plan(target)  # one block at a prime: sum and residue
            rebuilt = two_factor_recombine(split.kernel_total, split.kernel_residue)
            worst = max(worst, max_relative_error(rebuilt, target))
    return SuiteResult(
        name="crt-round-trip",
        passed=worst <= tol,
        max_error=worst,
        detail=f"primes={_fmt_sizes(primes)} trials=10 tol={tol:.1e}",
    )


def _rader_suite(seed, stream_index, trials, tol):
    rng = substream(seed, stream_index)
    primes = (3, 5, 7, 11, 13, 23)  # 23: fast-prime's 11-row block folds rows in fours
    engines = list(ConvolutionEngine)
    worst = 0.0
    for p in primes:
        plan = dft_plan(p)
        for _ in range(trials):
            data = complex_vector(rng, p)
            want = naive_dft(data)
            for engine in engines:
                got = rader_dft(plan, data, engine)
                worst = max(worst, max_relative_error(got, want))
    return SuiteResult(
        name="rader-vs-naive",
        passed=worst <= tol,
        max_error=worst,
        detail=f"primes={_fmt_sizes(primes)} trials={trials} engines={len(engines)} tol={tol:.1e}",
    )


def run_suites(sizes, trials: int, seed: int, inject_fault: bool = False) -> list:
    """Run every verification suite and return their results in fixed order.

    The floating-point suites each compare against their own tolerance: the
    two oracle-equivalence suites, crt-round-trip and rader-vs-naive.  The
    other five are exact: count-exactness compares integer counts, and the
    four matrix-form suites compare rationals.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one size")
    for n in sizes:
        if n < 2:
            raise ValueError(f"verification sizes must be >= 2, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return [
        _equivalence_suite("oracle-equivalence-real", sizes, trials, seed, 1,
                           1e-10, inject_fault, complex_data=False),
        _equivalence_suite("oracle-equivalence-complex", sizes, trials, seed, 2,
                           1e-9, inject_fault, complex_data=True),
        _count_suite(sizes, seed, 3),
        _antisymmetry_suite(seed, 4),
        _component_sum_suite(seed, 5),
        _identity_suite(),
        _rank_suite(),
        _crt_suite(seed, 6, 1e-9),
        _rader_suite(seed, 7, max(1, trials // 2), 1e-9),
    ]
