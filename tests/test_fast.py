from functools import reduce
from operator import add

import pytest

from helpers import complex_samples, real_samples, rng_for
from primeconv.core import direct_cyclic_convolution, max_relative_error
from primeconv.counting import OpTally
from primeconv.fast import (
    CompositeLengthWarning,
    fast_cyclic_convolution,
    multiplication_lower_bound,
    plan_create,
    predicted_counts,
    trace_convolution,
)
from primeconv.verification import correction_oracle, explicit_plan_weights


# --- plans ------------------------------------------------------------------

def test_plan_fixed_example():
    plan = plan_create([1.0, 2.0, 3.0])
    assert plan.length == 3
    assert plan.kernel_mean == pytest.approx(2.0)
    assert plan.diff_weights == pytest.approx((1.0, 0.0, -1.0))


def test_plan_weights_match_matrix_definition():
    # The closed form mean - b[i] must agree with the materialized
    # (kernel . shift^i seed) / n definition it was derived from.
    rng = rng_for(10)
    for n in range(2, 17):
        kernel = real_samples(rng, n)
        plan = plan_create(kernel)
        explicit = explicit_plan_weights(kernel)
        assert max(abs(a - b) for a, b in zip(plan.diff_weights, explicit)) < 1e-12


def test_plan_weights_sum_to_zero():
    rng = rng_for(11)
    for n in range(2, 20):
        plan = plan_create(real_samples(rng, n))
        assert abs(sum(plan.diff_weights)) < 1e-12


def test_plan_rejects_length_one():
    with pytest.raises(ValueError):
        plan_create([1.0])


def test_plan_warns_on_composite_length():
    with pytest.warns(CompositeLengthWarning):
        plan_create([1.0, 2.0, 3.0, 4.0])


def test_plan_is_silent_on_prime_length(recwarn):
    plan_create([1.0, 2.0, 3.0, 4.0, 5.0])
    assert not [w for w in recwarn if issubclass(w.category, CompositeLengthWarning)]


# --- engine output ----------------------------------------------------------

def test_fast_fixed_example():
    plan = plan_create([1.0, 2.0, 3.0])
    out = fast_cyclic_convolution(plan, [4.0, 5.0, 6.0])
    assert max_relative_error(out, (31.0, 31.0, 28.0)) < 1e-12


def test_fast_agrees_with_direct_real():
    rng = rng_for(12)
    for n in range(2, 24):
        kernel = real_samples(rng, n)
        plan = plan_create(kernel)
        for _ in range(10):
            data = real_samples(rng, n)
            got = fast_cyclic_convolution(plan, data)
            want = direct_cyclic_convolution(kernel, data)
            assert max_relative_error(got, want) < 1e-10


def test_fast_agrees_with_direct_complex():
    rng = rng_for(13)
    for n in (2, 3, 5, 7, 11, 12, 16):
        kernel = complex_samples(rng, n)
        plan = plan_create(kernel)
        for _ in range(5):
            data = complex_samples(rng, n)
            got = fast_cyclic_convolution(plan, data)
            want = direct_cyclic_convolution(kernel, data)
            assert max_relative_error(got, want) < 1e-9


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


def test_fast_counts_match_closed_form_everywhere():
    # Composite lengths included: the schedule does not branch on primality.
    rng = rng_for(16)
    for n in range(2, 41):
        plan = plan_create(real_samples(rng, n))
        tally = OpTally()
        fast_cyclic_convolution(plan, real_samples(rng, n), tally)
        assert tally.counts == predicted_counts(n)
        assert predicted_counts(n) == (n * (n - 1) // 2 + 1, 3 * n * (n - 1) // 2 + 1)


def test_predicted_counts_rejects_length_one():
    with pytest.raises(ValueError):
        predicted_counts(1)


def test_multiplication_lower_bound():
    assert multiplication_lower_bound(2) == 2
    assert multiplication_lower_bound(23) == 44
    with pytest.raises(ValueError):
        multiplication_lower_bound(1)
    # The engine meets the bound at n = 2 and 3, then drifts above it.
    assert predicted_counts(2)[0] == multiplication_lower_bound(2)
    assert predicted_counts(3)[0] == multiplication_lower_bound(3)
    for n in range(4, 30):
        assert predicted_counts(n)[0] > multiplication_lower_bound(n)


# --- trace internals --------------------------------------------------------

def test_trace_shapes_and_output():
    rng = rng_for(17)
    for n in range(2, 10):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        plan = plan_create(kernel)
        trace = trace_convolution(plan, data)
        assert len(trace.aligned) == n
        assert len(trace.pair_table) == n - 1
        assert [len(row) for row in trace.pair_table] == [n - 1 - i for i in range(n - 1)]
        assert len(trace.component_sums) == n
        assert trace.output == fast_cyclic_convolution(plan, data)


def test_trace_component_sums_cancel_exactly():
    # The reconstructed last component makes the sum zero in exact float
    # arithmetic, not merely to within roundoff, when summed as the engine
    # rebuilds it: a left fold from 0 (sum() compensates from Python 3.12).
    rng = rng_for(18)
    for n in range(2, 17):
        plan = plan_create(real_samples(rng, n))
        trace = trace_convolution(plan, real_samples(rng, n))
        assert reduce(add, trace.component_sums, 0) == 0.0


def test_trace_components_match_matrix_oracle():
    rng = rng_for(19)
    for n in range(2, 17):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        trace = trace_convolution(plan_create(kernel), data)
        oracle = correction_oracle(kernel, data)
        scale = max(1.0, max(abs(v) for v in oracle))
        assert max(abs(a - b) for a, b in zip(trace.component_sums, oracle)) / scale < 1e-10


def test_trace_base_term():
    rng = rng_for(20)
    for n in range(2, 10):
        kernel = real_samples(rng, n)
        data = real_samples(rng, n)
        trace = trace_convolution(plan_create(kernel), data)
        assert trace.base == pytest.approx(sum(kernel) * sum(data) / n)


def test_output_equals_base_minus_components():
    rng = rng_for(21)
    for n in range(2, 10):
        trace = trace_convolution(plan_create(real_samples(rng, n)), real_samples(rng, n))
        rebuilt = [trace.base - h for h in trace.component_sums]
        assert max_relative_error(rebuilt, trace.output) < 1e-15
