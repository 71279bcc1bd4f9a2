import cmath
import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from helpers import bits, complex_samples, next_prime, real_samples, rng_for
from primeconv import transforms
from primeconv.core import (
    Signal,
    direct_cyclic_convolution,
    factorize,
    max_relative_error,
)
from primeconv.counting import OpTally
from primeconv.fast import plan_create
from primeconv.transforms import (
    ConvolutionEngine,
    DftPlan,
    cyclic_convolution,
    dft_plan,
    find_primitive_root,
    linear_convolution,
    naive_dft,
    padded_length,
    rader_dft,
    schoolbook_linear_convolution,
)

ALL_ENGINES = tuple(ConvolutionEngine)
PRIMES_BELOW_600 = [p for p in range(3, 600) if factorize(p) == ((p, 1),)]


# --- engine dispatch ----------------------------------------------------------

def test_engine_from_name_round_trip():
    for engine in ConvolutionEngine:
        assert ConvolutionEngine.from_name(engine.value) is engine
    with pytest.raises(ValueError, match="unknown engine"):
        ConvolutionEngine.from_name("fft")


def test_dispatch_matches_direct_everywhere():
    # A prepared runner gives the dispatcher's bits and tallies its engine's budget.
    rng = rng_for(40)
    for make in (real_samples, complex_samples):
        for n in (2, 3, 4, 5, 6, 9, 11, 16):
            kernel = make(rng, n)
            data = make(rng, n)
            want = direct_cyclic_convolution(kernel, data)
            for engine in ALL_ENGINES:
                got = cyclic_convolution(kernel, data, engine)
                assert max_relative_error(got, want) < 1e-9, (n, engine)
                tally = OpTally()
                assert bits(engine.prepare(kernel)(data, tally)) == bits(got), (n, engine)
                assert tally.counts == engine.predicted_counts(n), (n, engine)


def test_dispatch_threads_the_tally():
    tally = OpTally()
    cyclic_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], ConvolutionEngine.FAST_PRIME, tally)
    assert tally.counts == (4, 10)
    # One prepared runner serves many inputs, each charged to its own tally.
    rng = rng_for(45)
    for make in (real_samples, complex_samples):
        for n in (4, 7, 9, 13):
            kernel = make(rng, n)
            for engine in ALL_ENGINES:
                run = engine.prepare(kernel)
                for _ in range(2):
                    data = make(rng, n)
                    tally, run_tally = OpTally(), OpTally()
                    got = cyclic_convolution(kernel, data, engine, tally)
                    assert tally.counts == engine.predicted_counts(n), (n, engine)
                    assert bits(run(data, run_tally)) == bits(got), (n, engine)
                    assert run_tally == tally, (n, engine)


def test_default_engine_is_direct():
    tally = OpTally()
    cyclic_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], tally=tally)
    assert tally.counts == (9, 6)


@pytest.mark.parametrize("n", [5, 6], ids=["one-block", "nested"])
@pytest.mark.parametrize("engine", [ConvolutionEngine.FAST_PRIME,
                                    ConvolutionEngine.WINOGRAD_TWO_FACTOR],
                         ids=["fast-prime", "two-factor"])
def test_overflow_names_the_engine_and_length(engine, n):
    # Finite input whose sums overflow: direct is exact, the reduced engines
    # are not, and they say so instead of naming a sample of their own.
    kernel = [1.0] + [0.0] * (n - 1)
    data = [1e308 if k % 2 == 0 else -1e308 for k in range(n)]
    assert cyclic_convolution(kernel, data) == data
    with pytest.raises(ValueError, match=rf"^the {engine.value} engine overflowed at "
                                         rf"n = {n}: the input was finite, but the result "
                                         rf"has a non-finite sample (inf|nan)$"):
        cyclic_convolution(kernel, data, engine)


# --- naive DFT oracle -----------------------------------------------------------

def test_naive_dft_delta_is_flat():
    out = naive_dft([1.0, 0.0, 0.0, 0.0])
    assert max_relative_error(out, [complex(1.0)] * 4) < 1e-12


def test_naive_dft_constant_concentrates_in_bin_zero():
    out = naive_dft([2.0] * 5)
    want = [complex(10.0)] + [complex(0.0)] * 4
    assert max_relative_error(out, want) < 1e-12


def test_naive_dft_single_tone():
    n = 8
    tone = [cmath.exp(complex(0.0, 2.0 * math.pi * 3 * j / n)) for j in range(n)]
    out = naive_dft(tone)
    want = [complex(0.0)] * n
    want[3] = complex(n)
    assert max_relative_error(out, want) < 1e-12


def test_naive_dft_preserves_energy():
    rng = rng_for(41)
    for n in (2, 3, 5, 8, 13):
        x = complex_samples(rng, n)
        spectrum = naive_dft(x)
        time_energy = sum(abs(v) ** 2 for v in x)
        freq_energy = sum(abs(v) ** 2 for v in spectrum)
        assert freq_energy == pytest.approx(n * time_energy, rel=1e-10)


# --- primitive roots -------------------------------------------------------------

def test_primitive_root_known_values():
    assert find_primitive_root(3) == 2
    assert find_primitive_root(5) == 2
    assert find_primitive_root(7) == 3
    assert find_primitive_root(13) == 2
    assert find_primitive_root(23) == 5


def test_primitive_root_has_full_order():
    # By brute force: find_primitive_root(p) is the smallest g whose powers
    # reach every nonzero residue.
    def generates(g, p):
        seen = set()
        value = 1
        for _ in range(p - 1):
            value = value * g % p
            seen.add(value)
        return len(seen) == p - 1

    for p in PRIMES_BELOW_600:
        g = find_primitive_root(p)
        assert [h for h in range(2, g + 1) if generates(h, p)] == [g], p


def test_primitive_root_rejects_bad_input():
    for bad in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            find_primitive_root(bad)


# --- prime-length DFT -------------------------------------------------------------

def test_dft_plan_structure():
    for p in (3, 5, 7, 11):
        plan = dft_plan(p)
        assert plan.length == p
        assert sorted(plan.input_order) == list(range(1, p))
        assert sorted(plan.output_order) == list(range(1, p))
        assert plan.input_order[0] == 1 and plan.output_order[0] == 1
        assert len(plan.kernel) == p - 1
        assert all(abs(abs(v) - 1.0) < 1e-12 for v in plan.kernel)


def test_dft_plan_is_kept_per_prime_and_bad_lengths_still_raise():
    assert dft_plan(7) is dft_plan(7)
    with pytest.raises(TypeError):
        dft_plan(7.0)  # typed: an equal float does not find the int's plan
    for _ in range(2):
        with pytest.raises(ValueError, match="need a prime p >= 3, got 6"):
            dft_plan(6)


def test_dft_plan_matches_power_definition():
    # input_order[m] = g^-m, output_order[l] = g^l and kernel[t] =
    # exp(-2 pi i g^t / p), each power by pow(), as the plan defines them.
    for p in PRIMES_BELOW_600:
        plan = dft_plan(p)
        g = find_primitive_root(p)
        g_inv = pow(g, p - 2, p)
        assert plan.root == g
        assert plan.input_order == tuple(pow(g_inv, i, p) for i in range(p - 1))
        assert plan.output_order == tuple(pow(g, i, p) for i in range(p - 1))
        want = [cmath.exp(complex(0.0, -2.0 * math.pi * pow(g, t, p) / p)) for t in range(p - 1)]
        assert bits(plan.kernel) == bits(want)


def test_rader_matches_naive_all_engines():
    rng = rng_for(42)
    for p in (3, 5, 7, 11, 13, 17):
        plan = dft_plan(p)
        for _ in range(4):
            data = complex_samples(rng, p)
            want = naive_dft(data)
            for engine in ALL_ENGINES:
                got = rader_dft(plan, data, engine)
                assert max_relative_error(got, want) < 1e-9, (p, engine)


def test_rader_accepts_real_input():
    rng = rng_for(43)
    plan = dft_plan(7)
    data = real_samples(rng, 7)
    assert max_relative_error(rader_dft(plan, data), naive_dft(data)) < 1e-9


def test_sample_sums_are_left_folds_on_every_python():
    # Builtin sum() of floats is compensated from Python 3.12 and gives 1.0
    # here, where a plain left fold gives 0.0; the library folds, so its
    # bits do not depend on the interpreter version.
    xs = [1e16, 1.0, -1e16]
    fold = reduce(add, xs, 0)
    assert fold.hex() == (0.0).hex()
    assert bits([rader_dft(dft_plan(3), xs)[0]]) == bits([complex(fold)])
    assert plan_create(xs).kernel_mean.hex() == (fold / 3).hex()


def test_rader_builds_each_engine_plan_once_per_prime(cold_rader_runners, monkeypatch):
    built = []
    for name in ("plan_create", "two_factor_plan"):
        def counted(kernel, _name=name, _build=getattr(transforms, name)):
            built.append(_name)
            return _build(kernel)
        monkeypatch.setattr(transforms, name, counted)
    # dft_plan(31) is kept, so the twin is built by hand: an equal plan whose
    # kernel is a new Signal still finds the runner kept for the first.
    plan = dft_plan(31)
    twin = DftPlan(*plan[:4], Signal(list(plan.kernel)))
    assert twin == plan and twin.kernel is not plan.kernel
    rng = rng_for(47)
    for _ in range(3):
        data = complex_samples(rng, 31)
        want = naive_dft(data)
        for each in (plan, twin):
            for engine in ALL_ENGINES:
                assert max_relative_error(rader_dft(each, data, engine), want) < 1e-9
    assert built == ["plan_create", "two_factor_plan"]


def test_rader_runner_lookup_hashes_the_twiddles_once(cold_rader_runners):
    # The runner is kept by the kernel's value; finding it again must not
    # hash all p - 1 twiddles on every call.
    hashed = []

    class HashCounted(complex):
        def __hash__(self):
            hashed.append(self)
            return complex.__hash__(self)

    plan = dft_plan(13)
    counted = DftPlan(*plan[:4], Signal(HashCounted(v) for v in plan.kernel))
    data = complex_samples(rng_for(49), 13)
    first = rader_dft(counted, data)
    for _ in range(2):
        assert bits(rader_dft(counted, data)) == bits(first)
    assert len(hashed) <= len(plan.kernel)


@pytest.mark.parametrize("engine, name", [
    (ConvolutionEngine.DIRECT, "direct_cyclic_convolution"),
    (ConvolutionEngine.FAST_PRIME, "fast_cyclic_convolution"),
    (ConvolutionEngine.WINOGRAD_TWO_FACTOR, "winograd_two_factor_convolution"),
], ids=["direct", "fast-prime", "two-factor"])
def test_engine_replaced_after_a_first_dft_reaches_the_next(cold_rader_runners, monkeypatch,
                                                            engine, name):
    # ConvolutionEngine looks its runners up when called, so a kept Rader
    # runner still reaches a replacement made after it was built.
    data = complex_samples(rng_for(48), 13)
    plan = dft_plan(13)
    first = rader_dft(plan, data, engine)
    calls = []
    original = getattr(transforms, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(transforms, name, spy)
    assert bits(rader_dft(plan, data, engine)) == bits(first)
    assert len(calls) == 1


def test_rader_length_mismatch():
    plan = dft_plan(5)
    with pytest.raises(ValueError, match="plan length 5"):
        rader_dft(plan, [1.0] * 6)


# --- linear convolution --------------------------------------------------------------

def test_padded_length_policies():
    # Each engine embeds at its cheapest length in max(2, 2n - 1) .. max(2, 4n - 2).
    direct, fast, two_factor = ALL_ENGINES
    assert [padded_length(250, engine) for engine in ALL_ENGINES] == [499, 510, 510]
    assert [padded_length(500, engine) for engine in ALL_ENGINES] == [999, 1020, 1050]
    assert direct.predicted_counts(499)[0] == 249_001
    assert fast.predicted_counts(510) == (12_056, 42_928)
    assert fast.predicted_counts(1020) == (42_196, 150_588)
    assert two_factor.predicted_counts(510) == (44_455, 62_390)
    assert two_factor.predicted_counts(1050) == (214_985, 268_970)
    for n in range(1, 301):
        lo, hi = max(2, 2 * n - 1), max(2, 4 * n - 2)
        for engine in ALL_ENGINES:
            length = padded_length(n, engine)
            window = [engine.predicted_counts(m) for m in range(lo, hi + 1)]
            assert window.index(min(window)) == length - lo, (n, engine)
            counts = window[length - lo]
            # Never above either fixed rule: the prime >= 2n - 1, or 2n.
            assert counts <= engine.predicted_counts(next_prime(lo)), (n, engine)
            assert counts <= engine.predicted_counts(max(2, 2 * n)), (n, engine)
            assert engine is not direct or length == lo
    with pytest.raises(ValueError):
        padded_length(0)


def test_schoolbook_linear_fixed_example():
    short = schoolbook_linear_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert max_relative_error(short, (4.0, 13.0, 28.0)) < 1e-12
    full = schoolbook_linear_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], full=True)
    assert max_relative_error(full, (4.0, 13.0, 28.0, 27.0, 18.0)) < 1e-12


def test_linear_matches_schoolbook_every_engine():
    rng = rng_for(44)
    for n in (1, 2, 3, 5, 8, 13, 20):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        for engine in ALL_ENGINES:
            got = linear_convolution(kernel, data, engine)
            want = schoolbook_linear_convolution(kernel, data)
            assert max_relative_error(got, want) < 1e-10, (n, engine)
            got_full = linear_convolution(kernel, data, engine, full=True)
            want_full = schoolbook_linear_convolution(kernel, data, full=True)
            assert max_relative_error(got_full, want_full) < 1e-10


def test_linear_keeps_exact_input_exact_and_float_bits():
    # Fraction input pads with Fraction(0) and the schoolbook sums start at
    # int 0, so both stay exact, through fast-prime's three-part nest at
    # n = 13 (length 30 = 2 * 3 * 5) too.  Float and complex input, signed
    # zeros included, keeps the bits of 0.0 padding and a 0.0 start.
    rng = rng_for(45)
    for n in (1, 2, 3, 5, 8, 13):
        kernel = [Fraction(v) for v in real_samples(rng, n)]
        data = [Fraction(v) for v in real_samples(rng, n)]
        want = schoolbook_linear_convolution(kernel, data, full=True)
        assert all(type(v) is Fraction for v in want)
        for engine in (ConvolutionEngine.DIRECT, ConvolutionEngine.FAST_PRIME):
            got = linear_convolution(kernel, data, engine, full=True)
            assert got == want and all(type(v) is Fraction for v in got), (n, engine)

        zeros = [-0.0 if k % 2 else 0.0 for k in range(n)]
        for kernel, data in ((real_samples(rng, n), real_samples(rng, n)),
                             (complex_samples(rng, n), complex_samples(rng, n)),
                             (zeros, zeros[::-1]),
                             ([complex(-0.0, v) for v in zeros], [complex(v, -0.0) for v in zeros])):
            sums = [reduce(add, (kernel[l] * data[k - l]
                                 for l in range(max(0, k - n + 1), min(k, n - 1) + 1)), 0.0)
                    for k in range(2 * n - 1)]
            assert bits(schoolbook_linear_convolution(kernel, data, full=True)) == bits(sums)
            for engine in ALL_ENGINES:
                pad = [0.0] * (padded_length(n, engine) - n)
                float_padded = cyclic_convolution(kernel + pad, data + pad, engine)
                got = linear_convolution(kernel, data, engine, full=True)
                assert bits(got) == bits(float_padded[:2 * n - 1]), (n, engine)


def test_linear_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        linear_convolution([1.0, 2.0], [1.0, 2.0, 3.0])


def test_linear_of_deltas():
    # Convolving unit impulses shifts: delta_a * delta_b has its one at a + b.
    a = Signal([0.0, 1.0, 0.0])
    b = Signal([0.0, 0.0, 1.0])
    full = linear_convolution(a, b, full=True)
    want = [0.0] * 5
    want[3] = 1.0
    assert max_relative_error(full, want) < 1e-12
