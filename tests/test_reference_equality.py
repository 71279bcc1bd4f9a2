"""The engines' tally-once loops against the per-operation reference loops.

Outputs must be bit-identical (compared by float.hex, so the sign of zero
counts) and tallies identical; plain mode (no tally) must give the same
bits as counted mode.
"""

import pytest

import reference_engines as ref
from helpers import bits, complex_samples, mixed_samples, real_samples, rng_for
from primeconv.counting import OpTally
from primeconv.fast import plan_create
from primeconv.polycrt import _reduce_mod_all_ones, poly_mul, two_factor_plan
from primeconv.transforms import ConvolutionEngine

# 60 = 3 * 4 * 5 nests over a composite prime-power block; 210 = 2 * 3 * 5 * 7
# nests four levels deep; 498 = 2 * 3 * 83 is Rader's length at p = 499.
# Fast-prime runs rows 1 .. n - 2 of a block in groups of four, direct runs
# four outputs per pass, and two-factor's poly_mul four slots per pass in
# each triangle of its product of two residues of length n - 1: sizes 1-40
# cover every remainder of the three groupings on scalar blocks, and
# 77 = 7 * 11 and 143 = 11 * 13 run fast-prime's and two-factor's on lane
# vectors, in outer blocks of 7 and 11.
SIZES = tuple(range(1, 41)) + (60, 77, 97, 143, 210, 498, 499)
ZERO_SIZES = tuple(range(1, 41)) + (97,)


def signed_zeros(n: int, phase: int) -> list:
    return [0.0 if (k + phase) % 3 else -0.0 for k in range(n)]


def inputs(make, index: int):
    """(n, kernel, data) cases: random samples at every size, then all-zero
    and mixed +-0.0 kernels and data at the smaller sizes."""
    rng = rng_for(index)
    for n in SIZES:
        yield n, make(rng, n), make(rng, n)
    complex_data = make is complex_samples
    for n in ZERO_SIZES:
        lift = complex if complex_data else float
        data = make(rng, n)
        yield n, [lift(0.0)] * n, data
        yield n, make(rng, n), [lift(-0.0)] * n
        yield n, [lift(-0.0)] * n, [lift(-0.0)] * n
        zeros = [complex(a, b) for a, b in zip(signed_zeros(n, 0), signed_zeros(n, 1))] \
            if complex_data else signed_zeros(n, 0)
        yield n, zeros, zeros[::-1]


def reference_fast(kernel, data, tally):
    return ref.fast_run(plan_create(kernel), data, tally)


def reference_two_factor(kernel, data, tally):
    return ref.two_factor(two_factor_plan(kernel), data, tally)


MAKERS = pytest.mark.parametrize("make", [real_samples, complex_samples, mixed_samples],
                                 ids=["real", "complex", "mixed"])


@MAKERS
@pytest.mark.parametrize(
    "engine, reference",
    [(ConvolutionEngine.DIRECT, ref.direct), (ConvolutionEngine.FAST_PRIME, reference_fast),
     (ConvolutionEngine.WINOGRAD_TWO_FACTOR, reference_two_factor)],
    ids=["direct", "fast-prime", "two-factor"],
)
def test_engine_matches_reference_loops_bit_for_bit(engine, reference, make):
    for n, kernel, data in inputs(make, 800):
        run = engine.prepare(kernel)
        tally, want_tally = OpTally(), OpTally()
        got = run(data, tally)
        want = reference(kernel, data, want_tally)
        assert bits(got) == bits(want), n
        assert tally == want_tally, n
        assert bits(run(data)) == bits(got), n


def coefficient_pairs(make, index: int):
    """Operand pairs of one length L, as the two-factor block passes them:
    random pairs at L = 1 .. 40 and 82, then signed-zero pairs.

    poly_mul runs the L lower-triangle and L - 1 upper-triangle slots of
    its product four to a pass and writes out each triangle's zero to three
    leftover slots: L = 1 .. 40 reaches every remainder mod 4 of both
    triangles and several groups, and 82 is the residue of the 83-point
    block in Rader's length 498.
    """
    rng = rng_for(index)
    for size in tuple(range(1, 41)) + (82,):
        yield make(rng, size), make(rng, size)
    yield make(rng, 5), signed_zeros(5, 0)
    yield signed_zeros(6, 1), signed_zeros(6, 2)
    yield make(rng, 9), signed_zeros(9, 3)


@MAKERS
def test_poly_mul_matches_reference_loop(make):
    for a, b in coefficient_pairs(make, 802):
        tally, want_tally = OpTally(), OpTally()
        assert bits(poly_mul(a, b, tally)) == bits(ref.poly_mul(a, b, ref.scalars(want_tally)))
        assert tally == want_tally


@MAKERS
def test_reduce_mod_all_ones_matches_reference_loop(make):
    rng = rng_for(804)
    for n in range(2, 41):
        # Callers pass n - 1 to 2n coefficients: the kernel and data n, the
        # product 2n - 3, which is n - 1 at n = 2.
        for size in (n - 1, n, n + 1, 2 * n - 3, 2 * n):
            coeffs = make(rng, size)
            for values in (coeffs, signed_zeros(len(coeffs), n)):
                tally, want_tally = OpTally(), OpTally()
                got = _reduce_mod_all_ones(values, n, tally)
                want = ref.reduce_mod_all_ones(values, n, ref.scalars(want_tally))
                assert bits(got) == bits(want), (n, size)
                assert tally == want_tally, (n, size)
