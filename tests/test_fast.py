from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple

import pytest

from helpers import real_samples, rng_for
from primeconv.core import direct_cyclic_convolution, max_relative_error
from primeconv.counting import OpTally
from primeconv.fast import (
    FastPlan,
    fast_cyclic_convolution,
    multiplication_lower_bound,
    plan_create,
    predicted_counts,
)
from primeconv.nesting import NestedPlan, UnitPlan, block_lengths, nest
from primeconv.verification import block_plan, explicit_plan_weights


# --- plans ------------------------------------------------------------------

def test_plan_fixed_example():
    plan = plan_create([1.0, 2.0, 3.0])
    assert plan.length == 3
    assert plan.kernel_mean == pytest.approx(2.0)
    assert plan.diff_weights == pytest.approx((1.0, 0.0, -1.0))


def test_plan_weights_match_matrix_definition():
    # The closed form mean - b[i] must equal the materialized
    # (kernel . shift^i seed) / n definition it was derived from, exactly
    # over the rationals.
    rng = rng_for(10)
    for n in range(2, 17):
        kernel = [Fraction(v) for v in real_samples(rng, n)]
        assert block_plan(kernel).diff_weights == explicit_plan_weights(kernel)


def test_plan_weights_sum_to_zero():
    rng = rng_for(11)
    for n in range(2, 20):
        plan = block_plan([Fraction(v) for v in real_samples(rng, n)])
        assert sum(plan.diff_weights) == 0


def test_plan_rejects_length_one():
    # plan_create takes n = 1 as the nest over no parts, one product; only
    # the single-block pair-table tooling needs two samples.
    assert plan_create([1.5]) == UnitPlan("fast-prime", 1.5)
    with pytest.raises(ValueError, match="needs length >= 2, got 1"):
        block_plan([1.0])


def test_block_lengths_are_ascending_prime_powers():
    assert block_lengths(1) == ()
    assert block_lengths(2) == (2,)
    assert block_lengths(8) == (8,)
    assert block_lengths(12) == (3, 4)
    assert block_lengths(60) == (3, 4, 5)
    assert block_lengths(210) == (2, 3, 5, 7)
    assert block_lengths(498) == (2, 3, 83)
    # By definition, for n = 1-2048: pairwise coprime prime powers whose
    # product is n.  A part's smallest divisor above 1 is prime; the part
    # is a power of it when dividing it out leaves 1.
    for n in range(1, 2049):
        parts = block_lengths(n)
        assert list(parts) == sorted(parts) and prod(parts) == n, n
        assert all(gcd(q, r) == 1 for i, q in enumerate(parts) for r in parts[i + 1:]), n
        for q in parts:
            rest, d = q, next(d for d in range(2, q + 1) if q % d == 0)
            while rest % d == 0:
                rest //= d
            assert rest == 1, (n, q)


def test_plan_nests_over_the_smallest_part():
    plan = plan_create([float(k) for k in range(498)])
    assert isinstance(plan, NestedPlan) and isinstance(plan.block, FastPlan)
    assert (plan.length, plan.block.length) == (498, 2)
    # Good-Thomas: order[a * m + c] = k with k = a (mod 2), k = c (mod 249).
    assert sorted(plan.order) == list(range(498))
    assert all(k % 2 == i // 249 and k % 249 == i % 249 for i, k in enumerate(plan.order))
    inner = plan.block.kernel_mean
    assert isinstance(inner, NestedPlan) and (inner.length, inner.block.length) == (249, 3)
    assert isinstance(inner.block.kernel_mean, FastPlan) and inner.block.kernel_mean.length == 83
    assert len(plan.block.diff_weights) == 2 and len(inner.block.diff_weights) == 3
    assert isinstance(plan_create([1.0] * 8), FastPlan)
    assert isinstance(block_plan([1.0] * 6), FastPlan)


class Schoolbook(NamedTuple):
    """A block type the nesting has never seen: the defining double loop on
    natural-order ring elements, charging the direct count to ``tally``."""

    kernel: tuple
    engine = "schoolbook"

    @classmethod
    def build(cls, b):
        return cls(b)

    @property
    def length(self) -> int:
        return len(self.kernel)

    def run(self, z, tally: OpTally) -> list:
        n = self.length
        out = []
        for p in range(n):
            acc = self.kernel[0] * z[p]
            for l in range(1, n):
                acc = acc + self.kernel[l] * z[p - l]
            out.append(acc)
        tally.mults += n * n
        tally.adds += n * (n - 1)
        return out


def test_nest_runs_any_block_that_reads_natural_order():
    # nest and NestedPlan.run know only length and run: a schoolbook block
    # nested over the Good-Thomas map is a length-n cyclic convolution with
    # the direct count, n*n products and n*(n-1) additions.
    rng = rng_for(16)
    for n in (6, 12, 20, 30, 60, 72):
        kernel, data = real_samples(rng, n), real_samples(rng, n)
        plan = nest(kernel, Schoolbook)
        assert isinstance(plan, NestedPlan) and isinstance(plan.block, Schoolbook)
        tally = OpTally()
        got = plan.run(data, tally)
        assert max_relative_error(got, direct_cyclic_convolution(kernel, data)) < 1e-14, n
        assert tally.counts == (n * n, n * (n - 1)), n


# --- engine output ----------------------------------------------------------

def test_fast_fixed_example():
    plan = plan_create([1.0, 2.0, 3.0])
    out = fast_cyclic_convolution(plan, [4.0, 5.0, 6.0])
    assert max_relative_error(out, (31.0, 31.0, 28.0)) < 1e-12


def test_fast_delta_kernel_recovers_data():
    rng = rng_for(14)
    for n in range(2, 12):
        plan = plan_create([1.0] + [0.0] * (n - 1))
        data = real_samples(rng, n)
        assert max_relative_error(fast_cyclic_convolution(plan, data), data) < 1e-12


def test_fast_data_length_mismatch():
    plan = plan_create([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="plan length 3"):
        fast_cyclic_convolution(plan, [1.0] * 4)


# --- operation counts -------------------------------------------------------

def test_fast_counts_fixed_values():
    rng = rng_for(15)
    for n, expected in ((3, (4, 10)), (23, (254, 760))):
        tally = OpTally()
        plan = plan_create(real_samples(rng, n))
        fast_cyclic_convolution(plan, real_samples(rng, n), tally)
        assert tally.counts == expected


def block_counts(q):
    return (q * (q - 1) // 2 + 1, 3 * q * (q - 1) // 2 + 1)


def nested_counts(n):
    """M(1) = 1 and A(1) = 0, the nest over no parts; M(q x m) = M(q) M(m)
    and A(q x m) = A(q) m + M(q) A(m), with q the smallest prime-power part
    of n and m = n / q."""
    parts = block_lengths(n)
    if not parts:
        return (1, 0)
    q, m = parts[0], n // parts[0]
    (mq, aq), (mm, am) = block_counts(q), nested_counts(m)
    return (mq * mm, aq * m + mq * am)


def test_fast_counts_match_closed_form_everywhere():
    # A prime power is one block; other lengths nest over their parts.
    rng = rng_for(16)
    for n in range(1, 41):
        plan = plan_create(real_samples(rng, n))
        tally = OpTally()
        fast_cyclic_convolution(plan, real_samples(rng, n), tally)
        assert tally.counts == predicted_counts(n) == nested_counts(n), n
        if len(block_lengths(n)) == 1:
            assert predicted_counts(n) == block_counts(n), n


def test_fast_counts_nested_fixed_values():
    # Direct needs n^2 mults; one block of n needs n(n-1)/2 + 1.
    expected = {6: (8, 32), 12: (28, 116), 30: (88, 408), 60: (308, 1448),
                210: (1936, 8488), 498: (27232, 84336)}
    for n, counts in expected.items():
        assert predicted_counts(n) == counts, n
    assert block_counts(498) == (123754, 371260)
    rng = rng_for(22)
    for n in (60, 498):
        tally = OpTally()
        fast_cyclic_convolution(plan_create(real_samples(rng, n)), real_samples(rng, n), tally)
        assert tally.counts == expected[n]


def test_block_plan_runs_one_block_at_composite_length():
    rng = rng_for(23)
    for n in (6, 12, 30):
        kernel, data = real_samples(rng, n), real_samples(rng, n)
        tally = OpTally()
        got = fast_cyclic_convolution(block_plan(kernel), data, tally)
        assert tally.counts == block_counts(n)
        assert max_relative_error(got, direct_cyclic_convolution(kernel, data)) < 1e-12


def test_predicted_counts_at_length_one():
    # One product, as direct; a length below 1 has no factorisation.
    assert predicted_counts(1) == (1, 0)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        predicted_counts(0)


def test_multiplication_lower_bound():
    # 2n - d(n), with d(n) the number of divisors of n; 2(n - 1) at primes.
    assert multiplication_lower_bound(1) == 1
    assert multiplication_lower_bound(2) == 2
    assert multiplication_lower_bound(23) == 44
    assert multiplication_lower_bound(6) == 8
    assert multiplication_lower_bound(12) == 18
    with pytest.raises(ValueError):
        multiplication_lower_bound(0)
    for n in range(1, 2049):
        assert multiplication_lower_bound(n) == 2 * n - sum(n % d == 0 for d in range(1, n + 1)), n
    # The engine meets the bound at n = 1, 2, 3 and 6 and is above it elsewhere.
    for n in (1, 2, 3, 6):
        assert predicted_counts(n)[0] == multiplication_lower_bound(n), n
    for n in range(4, 30):
        if n != 6:
            assert predicted_counts(n)[0] > multiplication_lower_bound(n), n
