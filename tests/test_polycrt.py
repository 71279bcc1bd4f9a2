import pytest

from helpers import real_samples, rng_for
from primeconv.core import direct_cyclic_convolution, max_relative_error
from primeconv.counting import OpTally
from primeconv.fast import multiplication_lower_bound, predicted_counts
from primeconv.nesting import NestedPlan, block_lengths
from primeconv.polycrt import (
    TwoFactorPlan,
    _reduce_mod_all_ones,
    poly_mul,
    two_factor_plan,
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


def test_poly_mul_rejects_empty_operands():
    # An empty operand has no product to seed a slot with: it is refused,
    # naming both lengths, before anything is charged.
    for a, b in (([], []), ([], [1.0, 2.0]), ([1.0, 2.0], [])):
        tally = OpTally()
        with pytest.raises(ValueError, match=f"lengths {len(a)} and {len(b)}"):
            poly_mul(a, b, tally)
        assert tally.counts == (0, 0)


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

def convolve(kernel, data, tally=None):
    return winograd_two_factor_convolution(two_factor_plan(kernel), data, tally)


def test_two_factor_fixed_example():
    out = convolve([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert max_relative_error(out, (31.0, 31.0, 28.0)) < 1e-10


def test_two_factor_agrees_with_direct_on_primes():
    rng = rng_for(34)
    for p in PRIMES_TO_31:
        kernel = real_samples(rng, p)
        for _ in range(5):
            data = real_samples(rng, p)
            got = convolve(kernel, data)
            want = direct_cyclic_convolution(kernel, data)
            assert max_relative_error(got, want) < 1e-8


def test_two_factor_counts():
    rng = rng_for(35)
    tally = OpTally()
    convolve([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], tally)
    assert tally.counts == (6, 11)
    for p in PRIMES_TO_31:
        tally = OpTally()
        convolve(real_samples(rng, p), real_samples(rng, p), tally)
        assert tally.counts == two_factor_predicted_counts(p)
        assert tally.mults == (p - 1) ** 2 + 2


def test_two_factor_predicted_count_values():
    assert two_factor_predicted_counts(2) == (3, 4)
    assert two_factor_predicted_counts(3) == (6, 11)
    assert two_factor_predicted_counts(5) == (18, 31)
    # Prime powers keep the single block.
    assert two_factor_predicted_counts(8) == (51, 76)
    # Nested: M(q x m) = ((q-1)^2 + 1) M(m) + m, A(q x m) = A(q) m + ((q-1)^2 + 1) A(m).
    assert two_factor_predicted_counts(6) == (15, 34)
    assert two_factor_predicted_counts(10) == (41, 82)
    assert two_factor_predicted_counts(12) == (59, 144)
    assert two_factor_predicted_counts(30) == (205, 480)
    assert two_factor_predicted_counts(60) == (945, 2270)
    assert two_factor_predicted_counts(210) == (6705, 13390)
    assert two_factor_predicted_counts(498) == (67675, 73332)
    with pytest.raises(ValueError):
        two_factor_predicted_counts(1)


def prime_power_parts(n: int) -> list:
    """The coprime prime-power parts of n, ascending, by trial division."""
    parts, p = [], 2
    while n > 1:
        part = 1
        while n % p == 0:
            n //= p
            part *= p
        if part > 1:
            parts.append(part)
        p += 1
    return sorted(parts)


def nested_two_factor_counts(parts: list) -> tuple[int, int]:
    """The two-factor budget over ``parts``, smallest outermost: one block
    of q costs ((q-1)^2 + 2, q^2 + 2q - 4); over a length-m inner run its
    (q-1)^2 + 1 products each cost that run, its one scaling costs m mults
    and each of its additions m adds."""
    q, *inner = parts
    if not inner:
        return (q - 1) ** 2 + 2, q * q + 2 * q - 4
    m = 1
    for part in inner:
        m *= part
    inner_mults, inner_adds = nested_two_factor_counts(inner)
    products = (q - 1) ** 2 + 1
    return products * inner_mults + m, (q * q + 2 * q - 4) * m + products * inner_adds


def test_two_factor_tally_matches_independent_recursion():
    rng = rng_for(38)
    for n in tuple(range(2, 65)) + (498,):
        tally = OpTally()
        convolve(real_samples(rng, n), real_samples(rng, n), tally)
        assert tally.counts == two_factor_predicted_counts(n) \
            == nested_two_factor_counts(prime_power_parts(n)), n


def test_two_factor_plan_nests_over_the_smallest_part():
    plan = two_factor_plan([float(k) for k in range(498)])
    assert isinstance(plan, NestedPlan) and plan.length == 498
    assert isinstance(plan.block, TwoFactorPlan) and plan.block.length == 2
    inner = plan.block.kernel_total
    assert isinstance(inner, NestedPlan) and (inner.length, inner.block.length) == (249, 3)
    assert all(isinstance(p, NestedPlan) for p in plan.block.kernel_residue)
    leaf = inner.block.kernel_residue[0]
    assert isinstance(leaf, TwoFactorPlan) and leaf.length == 83
    # Prime powers keep one block.
    for n in (2, 4, 8, 9, 499):
        assert isinstance(two_factor_plan([1.0] * n), TwoFactorPlan)


def test_two_factor_opt_in_composite_lengths():
    rng = rng_for(36)
    for n in (4, 6, 9, 10, 12, 30, 60, 210, 498):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        got = convolve(kernel, data)
        want = direct_cyclic_convolution(kernel, data)
        assert max_relative_error(got, want) < 1e-12, n
        tally = OpTally()
        convolve(kernel, data, tally)
        assert tally.counts == two_factor_predicted_counts(n)


def test_two_factor_length_errors():
    plan = two_factor_plan([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="does not match"):
        winograd_two_factor_convolution(plan, [1.0, 2.0])
    with pytest.raises(ValueError, match=">= 2"):
        two_factor_plan([1.0])


def test_multiplication_count_ordering():
    # Winograd's minimum <= reduced-multiplication engine <= two-factor
    # <= direct, for every n >= 2; nesting puts two-factor strictly below
    # its single block wherever n has two or more coprime parts.
    from primeconv.core import direct_predicted_counts

    for n in range(2, 257):
        fast_m = predicted_counts(n)[0]
        two_m = two_factor_predicted_counts(n)[0]
        direct_m = direct_predicted_counts(n)[0]
        assert multiplication_lower_bound(n) <= fast_m <= two_m <= direct_m, n
        if len(block_lengths(n)) >= 2:
            assert two_m < (n - 1) ** 2 + 2, n


def test_two_factor_handles_complex_data():
    rng = rng_for(37)
    kernel = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
    got = convolve(kernel, data)
    want = direct_cyclic_convolution(kernel, data)
    assert max_relative_error(got, want) < 1e-8
