import pytest

from helpers import real_samples, rng_for
from primeconv.core import direct_cyclic_convolution, max_relative_error
from primeconv.counting import OpTally
from primeconv.fast import predicted_counts
from primeconv.polycrt import (
    Polynomial,
    _reduce_mod_all_ones,
    build_residue_system,
    coefficient_distance,
    crt_reconstruct,
    extended_euclid_inverse,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_mul_mod,
    two_factor_predicted_counts,
    two_factor_system,
    winograd_two_factor_convolution,
)

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 31)


# --- polynomial basics --------------------------------------------------------

def test_degree_ignores_tiny_trailing_coefficients():
    assert Polynomial((1.0, 2.0, 3.0)).degree() == 2
    assert Polynomial((1.0, 2.0, 1e-15)).degree() == 1
    assert Polynomial((0.0, 0.0)).degree() == -1
    assert Polynomial(()).degree() == -1


def test_evaluate_horner():
    p = Polynomial((1.0, -2.0, 3.0))  # 1 - 2x + 3x^2
    assert p.evaluate(0.0) == 1.0
    assert p.evaluate(2.0) == 9.0


def test_operator_arithmetic():
    a = Polynomial((1.0, 2.0))
    b = Polynomial((3.0, 0.0, 1.0))
    assert (a + b).coeffs == (4.0, 2.0, 1.0)
    assert (b - a).coeffs == (2.0, -2.0, 1.0)
    assert (a * b).coeffs == (3.0, 6.0, 1.0, 2.0)


def test_coefficient_distance_pads():
    assert coefficient_distance(Polynomial((1.0,)), Polynomial((1.0, 0.5))) == 0.5


def test_poly_mul_counts():
    tally = OpTally()
    out = poly_mul(Polynomial((1.0, 2.0)), Polynomial((3.0, 4.0)), tally)
    assert out.coeffs == (3.0, 10.0, 8.0)
    assert tally.counts == (4, 1)


def test_poly_mul_count_formula():
    rng = rng_for(30)
    for la in range(1, 7):
        for lb in range(1, 7):
            tally = OpTally()
            poly_mul(Polynomial(real_samples(rng, la)), Polynomial(real_samples(rng, lb)), tally)
            assert tally.counts == (la * lb, (la - 1) * (lb - 1))


# --- division, gcd, inverses --------------------------------------------------

def test_divmod_exact_factorization():
    num = Polynomial((-1.0, 0.0, 0.0, 1.0))  # x^3 - 1
    den = Polynomial((-1.0, 1.0))            # x - 1
    quotient, remainder = poly_divmod(num, den)
    assert coefficient_distance(quotient, Polynomial((1.0, 1.0, 1.0))) < 1e-12
    assert remainder.degree() == -1


def test_divmod_non_monic_divisor():
    num = Polynomial((1.0, 3.0, 2.0))  # (2x + 1)(x + 1)
    den = Polynomial((1.0, 2.0))
    quotient, remainder = poly_divmod(num, den)
    assert coefficient_distance(quotient, Polynomial((1.0, 1.0))) < 1e-12
    assert remainder.degree() == -1


def test_divmod_reconstructs_numerator():
    rng = rng_for(31)
    for _ in range(25):
        num = Polynomial(real_samples(rng, rng.randint(1, 9)))
        den = Polynomial(real_samples(rng, rng.randint(1, 5)))
        if den.degree() < 0:
            continue
        quotient, remainder = poly_divmod(num, den)
        rebuilt = quotient * den + remainder
        scale = max(1.0, max(abs(c) for c in num.coeffs))
        assert coefficient_distance(rebuilt, num) / scale < 1e-10
        assert remainder.degree() < den.degree()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Polynomial((1.0,)), Polynomial((0.0,)))


def test_poly_mul_mod_degree_guard():
    modulus = Polynomial((1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="below the"):
        poly_mul_mod(Polynomial((1.0, 0.0, 2.0)), Polynomial((1.0,)), modulus)
    out = poly_mul_mod(Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), modulus)
    # x * x mod (x^2 + x + 1) = -x - 1
    assert coefficient_distance(out, Polynomial((-1.0, -1.0))) < 1e-12


def test_poly_gcd_shared_factor():
    a = Polynomial((-1.0, 0.0, 1.0))   # (x - 1)(x + 1)
    b = Polynomial((1.0, 2.0, 1.0))    # (x + 1)^2
    assert coefficient_distance(poly_gcd(a, b), Polynomial((1.0, 1.0))) < 1e-12


def test_poly_gcd_coprime_is_constant():
    assert poly_gcd(Polynomial((-1.0, 1.0)), Polynomial((1.0, 1.0, 1.0))).degree() == 0


def test_inverse_fixed_example():
    # (x - 1)^{-1} mod (x^2 + x + 1) = (-2 - x) / 3
    modulus = Polynomial((1.0, 1.0, 1.0))
    inverse = extended_euclid_inverse(Polynomial((-1.0, 1.0)), modulus)
    assert coefficient_distance(inverse, Polynomial((-2.0 / 3.0, -1.0 / 3.0))) < 1e-12
    product = poly_mod(Polynomial((-1.0, 1.0)) * inverse, modulus)
    assert coefficient_distance(product, Polynomial((1.0,))) < 1e-12


def test_inverse_random_round_trips():
    rng = rng_for(32)
    modulus = Polynomial((1.0,) * 5)
    done = 0
    while done < 10:
        value = Polynomial(real_samples(rng, 4))
        inverse = extended_euclid_inverse(value, modulus)
        product = poly_mod(value * inverse, modulus)
        assert coefficient_distance(product, Polynomial((1.0,))) < 1e-8
        done += 1


def test_inverse_rejects_shared_factor():
    with pytest.raises(ValueError, match="share"):
        extended_euclid_inverse(Polynomial((1.0, 1.0)), Polynomial((1.0, 2.0, 1.0)))
    with pytest.raises(ValueError):
        extended_euclid_inverse(Polynomial((1.0,)), Polynomial((2.0,)))  # modulus degree 0


# --- residue systems ----------------------------------------------------------

def test_build_residue_system_validation():
    with pytest.raises(ValueError, match="coprime"):
        build_residue_system((Polynomial((1.0, 1.0)), Polynomial((1.0, 2.0, 1.0))))
    with pytest.raises(ValueError, match="degree"):
        build_residue_system((Polynomial((2.0,)),))
    with pytest.raises(ValueError):
        build_residue_system(())


def test_crt_round_trip_random():
    rng = rng_for(33)
    system = build_residue_system((Polynomial((-1.0, 1.0)), Polynomial((1.0, 1.0, 1.0))))
    for _ in range(20):
        target = Polynomial(real_samples(rng, 3))
        residues = [poly_mod(target, m) for m in system.moduli]
        rebuilt = crt_reconstruct(residues, system)
        assert coefficient_distance(rebuilt, target) < 1e-10


def test_crt_reconstruct_validates_residues():
    system = two_factor_system(3)
    with pytest.raises(ValueError, match="residues"):
        crt_reconstruct((Polynomial((1.0,)),), system)
    with pytest.raises(ValueError, match="degree"):
        crt_reconstruct((Polynomial((1.0, 1.0)), Polynomial((1.0,))), system)


def test_two_factor_system_product_is_cyclic_modulus():
    for n in (2, 3, 5, 8, 13):
        system = two_factor_system(n)
        expected = Polynomial((-1.0,) + (0.0,) * (n - 1) + (1.0,))  # x^n - 1
        assert coefficient_distance(system.product, expected) < 1e-9
    with pytest.raises(ValueError):
        two_factor_system(1)


def test_reduce_mod_all_ones_wraps_every_power():
    # x^6 = (x^3)^2 == 1 mod x^2 + x + 1: every exponent at or above n wraps,
    # including those at or above 2n.
    tally = OpTally()
    assert _reduce_mod_all_ones([0.0] * 6 + [1.0], 3, tally) == [1.0, 0.0]
    assert tally.counts == (0, 4 + 2)


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
    assert tally.counts == (5, 7)
    for p in PRIMES_TO_31:
        tally = OpTally()
        winograd_two_factor_convolution(real_samples(rng, p), real_samples(rng, p), tally)
        assert tally.counts == two_factor_predicted_counts(p)
        assert tally.mults == 1 + (p - 1) ** 2


def test_two_factor_predicted_count_values():
    assert two_factor_predicted_counts(2) == (2, 2)
    assert two_factor_predicted_counts(3) == (5, 7)
    assert two_factor_predicted_counts(5) == (17, 23)
    with pytest.raises(ValueError):
        two_factor_predicted_counts(1)


def test_two_factor_rejects_composite_by_default():
    with pytest.raises(ValueError, match="composite"):
        winograd_two_factor_convolution([1.0] * 4, [1.0] * 4)


def test_two_factor_opt_in_composite_lengths():
    rng = rng_for(36)
    for n in (4, 6, 9, 10, 12):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        got = winograd_two_factor_convolution(kernel, data, require_prime=False)
        want = direct_cyclic_convolution(kernel, data)
        assert max_relative_error(got, want) < 1e-8
        tally = OpTally()
        winograd_two_factor_convolution(kernel, data, tally, require_prime=False)
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
