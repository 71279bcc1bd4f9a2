import math
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import complex_samples, real_samples, rng_for
from primeconv.core import (
    Signal,
    as_signal,
    direct_cyclic_convolution,
    direct_predicted_counts,
    factorize,
    max_relative_error,
)
from primeconv.counting import OpTally
from primeconv.verification import cyclic_matrix, mat_vec, matrix_rank, reverse_permute


# --- Signal -----------------------------------------------------------------

def test_signal_basics():
    s = Signal([1.0, 2.0, 3.0])
    assert len(s) == 3
    assert s[1] == 2.0
    assert s == (1.0, 2.0, 3.0)
    assert s == [1.0, 2.0, 3.0]
    assert s == Signal([1.0, 2.0, 3.0])
    assert hash(s) == hash(Signal([1.0, 2.0, 3.0]))
    assert tuple(s) == s.samples
    assert repr(s) == "Signal([1.0, 2.0, 3.0])"


def test_signal_slicing_returns_signal():
    s = Signal([1.0, 2.0, 3.0, 4.0])
    head = s[:2]
    assert isinstance(head, Signal)
    assert head == (1.0, 2.0)


def test_signal_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        Signal([])
    with pytest.raises(ValueError):
        Signal([1.0, math.nan])
    with pytest.raises(ValueError):
        Signal([math.inf])
    with pytest.raises(ValueError):
        Signal([complex(0.0, math.nan)])
    with pytest.raises(ValueError, match=r"non-finite sample \(1\+nanj\)"):
        Signal([1.0, 2j, complex(1.0, math.nan), math.inf])
    with pytest.raises(ValueError, match="non-finite sample -inf"):
        Signal([1, -math.inf])
    with pytest.raises(TypeError):
        Signal([1.0, "2"])
    with pytest.raises(TypeError):
        Signal([None])


def test_signal_accepts_exact_scalars():
    samples = (1, True, Fraction(1, 3), Decimal("2.5"), -0.0, complex(1.0, -2.0))
    assert Signal(samples).samples == samples


def test_signal_accepts_exact_samples_beyond_float_range():
    # Too large for a float, but finite: cmath.isfinite raises OverflowError
    # on them, which must not escape.
    big = 10 ** 400
    samples = (big, Fraction(big, 3), 1.5)
    assert Signal(samples).samples == samples
    with pytest.raises(ValueError, match="non-finite sample inf"):
        Signal([big, math.inf])
    rng = rng_for(50)
    n = 7
    kernel, data = ([rng.choice((-1, 1)) * (rng.getrandbits(1000) | 1 << 999) for _ in range(n)]
                    for _ in range(2))
    tally = OpTally()
    got = direct_cyclic_convolution(kernel, data, tally)
    assert got == [sum(kernel[l] * data[(p - l) % n] for l in range(n)) for p in range(n)]
    assert (tally.mults, tally.adds) == (49, 42)


def test_signal_is_immutable():
    s = Signal([1.0])
    with pytest.raises((AttributeError, TypeError)):
        s.extra = 1  # __slots__ blocks new attributes
    with pytest.raises(TypeError):
        s[0] = 2.0


def test_signal_is_complex_flag():
    assert not Signal([1.0, 2.0]).is_complex
    assert Signal([1.0, complex(0.0, 1.0)]).is_complex


def test_as_signal_passthrough():
    s = Signal([1.0])
    assert as_signal(s) is s
    assert as_signal([1.0, 2.0]) == (1.0, 2.0)


# --- primes -----------------------------------------------------------------

def test_is_prime_small_values():
    primes_below_40 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(2, 40):
        assert (factorize(n) == ((n, 1),)) == (n in primes_below_40)
    for bad in (1, 0, -3):
        with pytest.raises(ValueError, match=f"need n >= 2, got {bad}"):
            factorize(bad)


def test_prime_factors():
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(2 * 3 * 83) == ((2, 1), (3, 1), (83, 1))


def test_factorize_matches_its_definition():
    # For n = 2-2048: ascending primes, each prime by trial division, whose
    # powers multiply back to n.
    for n in range(2, 2049):
        factors = factorize(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes)), n
        assert all(p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes), n
        assert all(e >= 1 for _, e in factors), n
        assert math.prod(p ** e for p, e in factors) == n, n


# --- index maps -------------------------------------------------------------

def test_reverse_permute_fixed_example():
    assert reverse_permute([10.0, 11.0, 12.0, 13.0]) == (10.0, 13.0, 12.0, 11.0)
    assert reverse_permute([5.0]) == (5.0,)


def test_reverse_permute_is_involutive():
    rng = rng_for(1)
    for n in range(1, 20):
        z = Signal(real_samples(rng, n))
        assert reverse_permute(reverse_permute(z)) == z
        assert reverse_permute(z)[0] == z[0]


# --- direct convolution -----------------------------------------------------

def test_direct_convolution_fixed_example():
    out = direct_cyclic_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert out == (31.0, 31.0, 28.0)
    assert sum(out) == pytest.approx(sum([1.0, 2.0, 3.0]) * sum([4.0, 5.0, 6.0]))


def test_direct_convolution_delta_kernel_is_identity():
    rng = rng_for(3)
    for n in range(1, 10):
        z = Signal(real_samples(rng, n))
        delta = [1.0] + [0.0] * (n - 1)
        assert direct_cyclic_convolution(delta, z) == z


def test_direct_convolution_counts_are_exact():
    rng = rng_for(4)
    for n in (1, 2, 3, 5, 8, 11, 16):
        tally = OpTally()
        direct_cyclic_convolution(real_samples(rng, n), real_samples(rng, n), tally)
        assert tally.counts == direct_predicted_counts(n) == (n * n, n * (n - 1))
    assert direct_predicted_counts(11) == (121, 110)


def test_direct_convolution_is_exact_over_integers_and_rationals():
    # Direct computes four outputs per pass and the n mod 4 others one at a
    # time; n = 1-13 runs every remainder, with and without whole groups.
    # Exact rings check which sample meets which kernel weight, free of
    # float rounding.
    rng = rng_for(10)

    def integers(n):
        return [rng.randint(-99, 99) for _ in range(n)]

    def rationals(n):
        return [Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n)]

    for n in range(1, 14):
        for make_kernel, make_data in ((integers, integers), (rationals, rationals),
                                       (rationals, integers), (integers, rationals)):
            b = make_kernel(n)
            z = make_data(n)
            want = [sum(b[l] * z[(p - l) % n] for l in range(n)) for p in range(n)]
            tally = OpTally()
            got = direct_cyclic_convolution(b, z, tally)
            assert list(got) == want, (n, make_kernel.__name__, make_data.__name__)
            assert tally.counts == (n * n, n * (n - 1))
        assert all(type(value) is int for value in direct_cyclic_convolution(
            integers(n), integers(n)))


def test_direct_convolution_commutes():
    rng = rng_for(5)
    for n in range(1, 12):
        b = Signal(real_samples(rng, n))
        z = Signal(real_samples(rng, n))
        left = direct_cyclic_convolution(b, z)
        right = direct_cyclic_convolution(z, b)
        assert max_relative_error(left, right) < 1e-12


def test_direct_convolution_is_linear_in_data():
    rng = rng_for(6)
    for n in range(1, 10):
        b = real_samples(rng, n)
        u = real_samples(rng, n)
        v = real_samples(rng, n)
        alpha = rng.uniform(-2.0, 2.0)
        combined = direct_cyclic_convolution(b, [alpha * a + c for a, c in zip(u, v)])
        parts = [
            alpha * a + c
            for a, c in zip(direct_cyclic_convolution(b, u), direct_cyclic_convolution(b, v))
        ]
        assert max_relative_error(combined, parts) < 1e-12


def rotated(signal, steps: int) -> tuple:
    """Cyclic shift: out[k] = in[(k - steps) mod n], for 0 <= steps < n."""
    x = signal.samples
    return x[len(x) - steps:] + x[:len(x) - steps]


def test_direct_convolution_commutes_with_rotation():
    rng = rng_for(7)
    for n in range(2, 10):
        b = Signal(real_samples(rng, n))
        z = Signal(real_samples(rng, n))
        for steps in range(n):
            rotated_first = direct_cyclic_convolution(b, rotated(z, steps))
            rotated_after = rotated(direct_cyclic_convolution(b, z), steps)
            assert max_relative_error(rotated_first, rotated_after) < 1e-12


def test_direct_convolution_matches_matrix_form():
    # out = cyclic_matrix(kernel) @ reverse_permute(data), entry for entry.
    rng = rng_for(8)
    for n in range(1, 9):
        b = real_samples(rng, n)
        z = real_samples(rng, n)
        via_matrix = mat_vec(cyclic_matrix(b), list(reverse_permute(z)))
        assert max_relative_error(direct_cyclic_convolution(b, z), via_matrix) < 1e-12


def test_matrix_rank_is_exact():
    # Any nonzero pivot counts, however small; only an exact zero is dropped.
    assert matrix_rank([[1e-12, 0.0], [0.0, 1.0]]) == 2
    assert matrix_rank([[1.0, 2.0], [2.0, 4.0]]) == 1


def test_direct_convolution_handles_complex_data():
    rng = rng_for(9)
    b = complex_samples(rng, 7)
    z = complex_samples(rng, 7)
    out = direct_cyclic_convolution(b, z)
    assert sum(out) == pytest.approx(sum(b) * sum(z))


def test_direct_convolution_length_mismatch():
    with pytest.raises(ValueError, match="3 does not match data length 4"):
        direct_cyclic_convolution([1.0] * 3, [1.0] * 4)


def test_max_relative_error_floors_scale_at_one():
    assert max_relative_error([1e-12, 0.0], [0.0, 0.0]) == pytest.approx(1e-12)
    assert max_relative_error([2.0], [4.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        max_relative_error([1.0], [1.0, 2.0])
