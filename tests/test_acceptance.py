"""End-to-end acceptance checks for the package's headline claims.

Each test prints one PASS/FAIL line with the tolerance it enforced (run
with ``pytest -s`` to see them) and asserts the same condition, so the
suite gates CI while doubling as a human-readable report.
"""

from helpers import complex_samples, real_samples, rng_for, run_fresh
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
from primeconv.verification import run_suites

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
    # verify states these lemmas exactly over Fraction; run_suites also runs
    # the floating-point suites, which other tests assert.
    structural = ("pair-table-antisymmetry", "component-sums-zero",
                  "identity-decomposition", "seed-matrix-rank")
    results = [r for r in run_suites((2,), 1, 104) if r.name in structural]
    ok = (tuple(r.name for r in results) == structural
          and all(r.passed and r.max_error is None for r in results))
    assert _report(
        4, "matrix-form invariants, exact", ok,
        "; ".join(f"{r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})" for r in results),
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


def test_6_linear_convolution_every_engine():
    # 100 and 250 reach fast-prime's and two-factor's deep nests at 210 and 510.
    rng = rng_for(106)
    worst = 0.0
    for n in (*range(1, 65), 100, 250):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        want = schoolbook_linear_convolution(kernel, data)
        for engine in ConvolutionEngine:
            got = linear_convolution(kernel, data, engine)
            worst = max(worst, max_relative_error(got, want))
    ok = worst <= 1e-10
    assert _report(
        6, "linear convolution via cyclic embedding", ok,
        f"n=1..64,100,250, 3 engines at their cheapest lengths: max err {worst:.2e} (tol 1e-10)",
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
    first, second = (run_fresh("-m", "primeconv", "verify", "--seed", "42") for _ in range(2))
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
