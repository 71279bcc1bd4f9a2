"""End-to-end acceptance checks for the package's headline claims.

Each test prints one PASS/FAIL line with the tolerance it enforced (run
with ``pytest -s`` to see them) and asserts the same condition, so the
suite gates CI while doubling as a human-readable report.
"""

import os
import subprocess
import sys
from functools import reduce
from operator import add
from pathlib import Path

import primeconv
from helpers import complex_samples, real_samples, rng_for
from primeconv.cli import main as cli_main
from primeconv.core import (
    direct_cyclic_convolution,
    direct_predicted_counts,
    max_relative_error,
)
from primeconv.counting import OpTally
from primeconv.fast import (
    fast_cyclic_convolution,
    multiplication_lower_bound,
    plan_create,
    predicted_counts,
)
from primeconv.polycrt import two_factor_plan, winograd_two_factor_convolution
from primeconv.transforms import (
    ConvolutionEngine,
    dft_plan,
    linear_convolution,
    naive_dft,
    rader_dft,
    schoolbook_linear_convolution,
)
from primeconv.verification import (
    block_plan,
    identity_decomposition_residual,
    matrix_rank,
    seed_column_matrix,
    trace_convolution,
)

REFERENCE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)

# Frozen reduced-multiplication engine counts for the reference primes.
EXPECTED_FAST_COUNTS = {
    3: (4, 10),
    5: (11, 31),
    7: (22, 64),
    11: (56, 166),
    13: (79, 235),
    17: (137, 409),
    19: (172, 514),
    23: (254, 760),
}


def _report(index: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[{index}/8] {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_1_engine_agreement_with_oracle():
    sizes = list(range(2, 33)) + [53, 97, 101]
    rng = rng_for(101)
    worst_real = 0.0
    for n in sizes:
        kernel = real_samples(rng, n)
        plan = plan_create(kernel)
        for _ in range(100):
            data = real_samples(rng, n)
            got = fast_cyclic_convolution(plan, data)
            want = direct_cyclic_convolution(kernel, data)
            worst_real = max(worst_real, max_relative_error(got, want))
    worst_complex = 0.0
    for n in sizes:
        kernel = complex_samples(rng, n)
        plan = plan_create(kernel)
        for _ in range(50):
            data = complex_samples(rng, n)
            got = fast_cyclic_convolution(plan, data)
            want = direct_cyclic_convolution(kernel, data)
            worst_complex = max(worst_complex, max_relative_error(got, want))
    ok = worst_real <= 1e-10 and worst_complex <= 1e-9
    assert _report(
        1, "engine agreement vs direct oracle", ok,
        f"sizes 2-32,53,97,101; 100 real vectors/n (max err {worst_real:.2e}, "
        f"tol 1e-10), 50 complex vectors/n (max err {worst_complex:.2e}, tol 1e-9)",
    )


def test_2_operation_count_exactness():
    rng = rng_for(102)
    fast_ok = True
    direct_ok = True
    for p in REFERENCE_PRIMES:
        kernel = real_samples(rng, p)
        data = real_samples(rng, p)
        tally = OpTally()
        fast_cyclic_convolution(plan_create(kernel), data, tally)
        if tally.counts != EXPECTED_FAST_COUNTS[p] or tally.counts != predicted_counts(p):
            fast_ok = False
        tally = OpTally()
        direct_cyclic_convolution(kernel, data, tally)
        if tally.counts != (p * p, p * (p - 1)) or tally.counts != direct_predicted_counts(p):
            direct_ok = False
    ok = fast_ok and direct_ok
    assert _report(
        2, "operation-count exactness", ok,
        "fast tallies equal (n(n-1)/2+1, 3n(n-1)/2+1) at n=3,5,7,11,13,17,19,23; "
        "direct tallies equal (n^2, n(n-1)); note: the published reference table "
        "lists (189, 172) for direct at n=17 where the formulas give (289, 272) — "
        "the formula values are asserted and the table row is annotated by the CLI",
    )


def test_3_two_factor_residue_path():
    rng = rng_for(103)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 31)
    worst = 0.0
    counts_ok = True
    for p in primes:
        kernel = real_samples(rng, p)
        plan = two_factor_plan(kernel)
        for _ in range(25):
            data = real_samples(rng, p)
            got = winograd_two_factor_convolution(plan, data)
            want = direct_cyclic_convolution(kernel, data)
            worst = max(worst, max_relative_error(got, want))
        tally = OpTally()
        winograd_two_factor_convolution(plan, real_samples(rng, p), tally)
        if tally.mults != (p - 1) ** 2 + 2:
            counts_ok = False
    ok = worst <= 1e-8 and counts_ok
    assert _report(
        3, "two-factor residue path", ok,
        f"primes 2..31, 25 vectors/p: max err {worst:.2e} (tol 1e-8); "
        f"multiplication tally equals (p-1)^2+2 exactly: {counts_ok}",
    )


def test_4_matrix_form_invariants():
    rng = rng_for(104)
    colsum_ok = True
    rank_ok = True
    identity_ok = True
    sums_ok = True
    antisym_ok = True
    for n in range(2, 13):
        f = seed_column_matrix(n)
        for c in range(n):
            if abs(sum(f[r][c] for r in range(n))) > 1e-12 * n:
                colsum_ok = False
        if matrix_rank(f) != n - 1:
            rank_ok = False
        if identity_decomposition_residual(n) > 1e-12:
            identity_ok = False
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        plan = block_plan(kernel)  # the pair table is defined on one block
        trace = trace_convolution(plan, data)
        if reduce(add, trace.component_sums, 0) != 0.0:  # the engine's own fold order
            sums_ok = False
        # Independently recomputed full pairwise table must be antisymmetric.
        y = list(trace.aligned)
        w = plan.diff_weights
        table = [[w[(i + j) % n] * (y[j] - y[i]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if abs(table[i][j] + table[j][i]) > 1e-12:
                    antisym_ok = False
    ok = colsum_ok and rank_ok and identity_ok and sums_ok and antisym_ok
    assert _report(
        4, "matrix-form invariants (n <= 12)", ok,
        f"column sums zero (tol 1e-12*n): {colsum_ok}; rank n-1: {rank_ok}; "
        f"identity decomposition (tol 1e-12): {identity_ok}; correction sums "
        f"exactly zero: {sums_ok}; pairwise-table antisymmetry (tol 1e-12): {antisym_ok}",
    )


def test_5_prime_dft_under_every_engine():
    rng = rng_for(105)
    worst = 0.0
    for p in REFERENCE_PRIMES:
        plan = dft_plan(p)
        for _ in range(50):
            data = complex_samples(rng, p)
            want = naive_dft(data)
            for engine in ConvolutionEngine:
                got = rader_dft(plan, data, engine)
                worst = max(worst, max_relative_error(got, want))
    ok = worst <= 1e-9
    assert _report(
        5, "prime-length DFT under all engines", ok,
        f"primes 3..23, 50 complex vectors/p, 3 engines: max err {worst:.2e} (tol 1e-9)",
    )


def test_6_linear_convolution_both_paddings():
    rng = rng_for(106)
    worst = 0.0
    for n in range(1, 65):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        want = schoolbook_linear_convolution(kernel, data, full=True)
        for padding in ("prime", "double"):
            for engine in ConvolutionEngine:
                got = linear_convolution(kernel, data, engine, padding=padding, full=True)
                worst = max(worst, max_relative_error(got, want))
    ok = worst <= 1e-10
    assert _report(
        6, "linear convolution via cyclic embedding", ok,
        f"n=1..64, paddings prime/double, 3 engines: max err {worst:.2e} (tol 1e-10)",
    )


def test_7_multiplication_ratio_and_reported_timings():
    worst_ratio = 0.0
    for n in range(11, 4097):
        ratio = predicted_counts(n)[0] / (n * n)
        worst_ratio = max(worst_ratio, ratio)
    ratio_ok = worst_ratio <= 0.51  # composite n nest, below one block's count
    # Wall-clock means are reported, never asserted: hardware-dependent.
    print("wall-clock report (ns, informational only):")
    bench_ok = cli_main([
        "bench", "--sizes", "101,499,997", "--trials", "3", "--format", "markdown",
    ]) == 0
    gap = {n: predicted_counts(n)[0] / multiplication_lower_bound(n) for n in (101, 499, 997)}
    ok = ratio_ok and bench_ok
    assert _report(
        7, "multiplication-ratio bound", ok,
        f"fast-prime mults/n^2 <= 0.51 for n=11..4096 (worst {worst_ratio:.4f}); "
        f"timings for n=101,499,997 reported above; gap vs 2n-d(n) lower bound: "
        + ", ".join(f"n={n}: {gap[n]:.1f}x" for n in sorted(gap)),
    )


def test_8_verification_report_is_byte_identical():
    command = [sys.executable, "-m", "primeconv", "verify", "--seed", "42"]
    # The CLI runs in a child process; point it at the package under test,
    # which need not be installed.
    package_root = str(Path(primeconv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    first = subprocess.run(command, capture_output=True, timeout=600, env=env)
    second = subprocess.run(command, capture_output=True, timeout=600, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    assert _report(
        8, "deterministic verification report", ok,
        f"two `verify --seed 42` runs: exit codes ({first.returncode}, "
        f"{second.returncode}), stdout identical: {first.stdout == second.stdout} "
        f"({len(first.stdout)} bytes)",
    )
