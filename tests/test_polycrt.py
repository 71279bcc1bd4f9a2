import pytest

from helpers import real_samples, rng_for
from primeconv.core import direct_cyclic_convolution, max_relative_error
from primeconv.counting import OpTally
from primeconv.fast import predicted_counts
from primeconv.polycrt import (
    _reduce_mod_all_ones,
    poly_mul,
    two_factor_predicted_counts,
    two_factor_recombine,
    two_factor_system,
    winograd_two_factor_convolution,
)

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 31)


# --- products, reductions, recombination ----------------------------------------

def test_poly_mul_counts():
    tally = OpTally()
    out = poly_mul([1.0, 2.0], (3.0, 4.0), tally)
    assert out == [3.0, 10.0, 8.0]
    assert tally.counts == (4, 1)


def test_poly_mul_count_formula():
    rng = rng_for(30)
    for la in range(1, 7):
        for lb in range(1, 7):
            tally = OpTally()
            poly_mul(real_samples(rng, la), real_samples(rng, lb), tally)
            assert tally.counts == (la * lb, (la - 1) * (lb - 1))


def test_reduce_mod_all_ones_wraps_every_power():
    # x^6 = (x^3)^2 == 1 mod x^2 + x + 1: every exponent at or above n wraps,
    # including those at or above 2n.
    tally = OpTally()
    assert _reduce_mod_all_ones([0.0] * 6 + [1.0], 3, tally) == [1.0, 0.0]
    assert tally.counts == (0, 4 + 2)


def test_crt_round_trip_random():
    # (value at x = 1, residue mod the all-ones factor) recombines to the
    # sequence itself, and the recombination charges (1, 2n - 2).
    rng = rng_for(33)
    for n in range(2, 12):
        for _ in range(20):
            target = real_samples(rng, n)
            tally = OpTally()
            rebuilt = two_factor_recombine(sum(target), _reduce_mod_all_ones(target, n), tally)
            assert max(abs(a - b) for a, b in zip(rebuilt, target)) < 1e-10
            assert len(rebuilt) == n
            assert tally.counts == (1, 2 * n - 2)


def test_two_factor_system_is_inverse_length():
    for n in (2, 3, 5, 8, 13):
        assert two_factor_system(n) == 1.0 / n
    with pytest.raises(ValueError):
        two_factor_system(1)


# --- the two-factor engine ------------------------------------------------------

def test_two_factor_fixed_example():
    out = winograd_two_factor_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert max_relative_error(out, (31.0, 31.0, 28.0)) < 1e-10


def test_two_factor_agrees_with_direct_on_primes():
    rng = rng_for(34)
    for p in PRIMES_TO_31:
        kernel = real_samples(rng, p)
        for _ in range(5):
            data = real_samples(rng, p)
            got = winograd_two_factor_convolution(kernel, data)
            want = direct_cyclic_convolution(kernel, data)
            assert max_relative_error(got, want) < 1e-8


def test_two_factor_counts():
    rng = rng_for(35)
    tally = OpTally()
    winograd_two_factor_convolution([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], tally)
    assert tally.counts == (6, 11)
    for p in PRIMES_TO_31:
        tally = OpTally()
        winograd_two_factor_convolution(real_samples(rng, p), real_samples(rng, p), tally)
        assert tally.counts == two_factor_predicted_counts(p)
        assert tally.mults == (p - 1) ** 2 + 2


def test_two_factor_predicted_count_values():
    assert two_factor_predicted_counts(2) == (3, 4)
    assert two_factor_predicted_counts(3) == (6, 11)
    assert two_factor_predicted_counts(5) == (18, 31)
    with pytest.raises(ValueError):
        two_factor_predicted_counts(1)


def test_two_factor_opt_in_composite_lengths():
    rng = rng_for(36)
    for n in (4, 6, 9, 10, 12):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        got = winograd_two_factor_convolution(kernel, data)
        want = direct_cyclic_convolution(kernel, data)
        assert max_relative_error(got, want) < 1e-8
        tally = OpTally()
        winograd_two_factor_convolution(kernel, data, tally)
        assert tally.counts == two_factor_predicted_counts(n)


def test_two_factor_length_errors():
    with pytest.raises(ValueError, match="does not match"):
        winograd_two_factor_convolution([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=">= 2"):
        winograd_two_factor_convolution([1.0], [1.0])


def test_multiplication_count_ordering():
    # Reduced-multiplication engine <= two-factor <= direct, for every n >= 2.
    from primeconv.core import direct_predicted_counts

    for n in range(2, 40):
        fast_m = predicted_counts(n)[0]
        two_m = two_factor_predicted_counts(n)[0]
        direct_m = direct_predicted_counts(n)[0]
        assert fast_m <= two_m <= direct_m


def test_two_factor_handles_complex_data():
    rng = rng_for(37)
    kernel = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
    got = winograd_two_factor_convolution(kernel, data)
    want = direct_cyclic_convolution(kernel, data)
    assert max_relative_error(got, want) < 1e-8
