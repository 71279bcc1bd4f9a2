import pytest

from helpers import real_samples, rng_for
from primeconv.core import max_relative_error
from primeconv.counting import OpTally
from primeconv.fast import multiplication_lower_bound, predicted_counts
from primeconv.nesting import NestedPlan, UnitPlan, block_lengths
from primeconv.polycrt import (
    TwoFactorPlan,
    _reduce_mod_all_ones,
    poly_mul,
    two_factor_plan,
    two_factor_predicted_counts,
    two_factor_system,
    winograd_two_factor_convolution,
)

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
    # x^n == 1 and x^{n-1} == -(1 + ... + x^{n-2}) mod 1 + x + ... + x^{n-1}:
    # each power reduces at the lengths the engine passes, the data's n and
    # the product's 2n - 3, charging one add per wrapped exponent and n - 1
    # for the eliminated top.
    for n in range(2, 12):
        for size in (n, 2 * n - 3):
            for k in range(size):
                tally = OpTally()
                got = _reduce_mod_all_ones([float(j == k) for j in range(size)], n, tally)
                if k % n < n - 1:
                    assert got == [float(j == k % n) for j in range(n - 1)], (n, size, k)
                else:
                    assert got == [-1.0] * (n - 1), (n, size, k)
                assert tally.counts == (0, max(0, size - n) + (n - 1) * (size >= n)), (n, size)


def test_crt_round_trip_random():
    # The plan splits the target into its value at x = 1 and its residue mod
    # the all-ones factor; the block's run on a unit impulse recombines them,
    # charging the block's budget ((n-1)^2 + 2, n^2 + 2n - 4).
    rng = rng_for(33)
    for n in range(2, 12):
        impulse = [1.0] + [0.0] * (n - 1)
        for _ in range(20):
            target = real_samples(rng, n)
            tally = OpTally()
            rebuilt = TwoFactorPlan.build(target).run(impulse, tally)
            assert max(abs(a - b) for a, b in zip(rebuilt, target)) < 1e-10
            assert len(rebuilt) == n
            assert tally.counts == ((n - 1) ** 2 + 2, n * n + 2 * n - 4)


def test_two_factor_system_is_inverse_length():
    for n in (1, 2, 3, 5, 8, 13):
        assert two_factor_system(n) == 1.0 / n


# --- the two-factor engine ------------------------------------------------------

def convolve(kernel, data, tally=None):
    return winograd_two_factor_convolution(two_factor_plan(kernel), data, tally)


def test_two_factor_fixed_example():
    out = convolve([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert max_relative_error(out, (31.0, 31.0, 28.0)) < 1e-10


def test_two_factor_predicted_count_values():
    assert two_factor_predicted_counts(1) == (1, 0)  # one product, as direct
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
    """The two-factor budget over ``parts``, smallest outermost: (1, 0)
    over no parts; over a length-m inner run, a block of q's (q-1)^2 + 1
    products each cost that run, its one scaling costs m mults and each of
    its q^2 + 2q - 4 additions m adds."""
    if not parts:
        return 1, 0
    q, *inner = parts
    m = 1
    for part in inner:
        m *= part
    inner_mults, inner_adds = nested_two_factor_counts(inner)
    products = (q - 1) ** 2 + 1
    return products * inner_mults + m, (q * q + 2 * q - 4) * m + products * inner_adds


def test_two_factor_tally_matches_independent_recursion():
    rng = rng_for(38)
    for n in tuple(range(1, 65)) + (498,):
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


def test_two_factor_length_errors():
    plan = two_factor_plan([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="does not match"):
        winograd_two_factor_convolution(plan, [1.0, 2.0])
    # Length 1 is the nest over no parts, one product, not an error.
    unit = two_factor_plan([1.5])
    assert unit == UnitPlan("winograd-two-factor", 1.5)
    with pytest.raises(ValueError, match="plan length 1 does not match data length 2"):
        winograd_two_factor_convolution(unit, [1.0, 2.0])


def test_multiplication_count_ordering():
    # Winograd's minimum <= reduced-multiplication engine <= two-factor
    # <= direct, for every n >= 1; nesting puts two-factor strictly below
    # its single block wherever n has two or more coprime parts.
    from primeconv.core import direct_predicted_counts

    for n in range(1, 257):
        fast_m = predicted_counts(n)[0]
        two_m = two_factor_predicted_counts(n)[0]
        direct_m = direct_predicted_counts(n)[0]
        assert multiplication_lower_bound(n) <= fast_m <= two_m <= direct_m, n
        if len(block_lengths(n)) >= 2:
            assert two_m < (n - 1) ** 2 + 2, n
