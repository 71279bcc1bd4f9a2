"""Differential properties: every engine against the direct oracle, and
the Rader DFT under every engine against the naive DFT.

Lengths 1-64, samples drawn from [-1, 1] (real parts and imaginary parts),
as all-real, all-complex or mixed lists.  The stated bound, with
u = 2**-53 the unit roundoff and S = sum_l |b[l]| * max_k |z[k]| the
largest possible output magnitude, is

    max_k |got[k] - want[k]| <= 64 * n * (u * S + 2**-1074).

Reasoning: under the standard model with gradual underflow every
operation errs by at most u relatively plus half the smallest subnormal
absolutely.  Each output of the direct oracle is a sum of n products, so
it errs by about n * u * S.  Fast-prime's intermediates (weights of size up
to |mean| + |b[k]|, data differences of size up to 2 * max|z|) stay within
4 * S per block, and a length of at most 64 nests at most three blocks
deep; two-factor's residues and recombination stay within a few S as well.
The factor 64 covers those growths and complex products; the test states
it once and checks it everywhere, it does not tune it per engine.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeconv.core import direct_cyclic_convolution, factorize
from primeconv.transforms import ConvolutionEngine, dft_plan, naive_dft, rader_dft

UNIT_ROUNDOFF = 2.0 ** -53
SMALLEST_SUBNORMAL = 2.0 ** -1074

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
real = unit
complex_ = st.builds(complex, unit, unit)
SAMPLES = {"real": real, "complex": complex_, "mixed": st.one_of(real, complex_)}
PRIMES = [p for p in range(2, 102) if factorize(p) == ((p, 1),)]


def error_bound(n: int, kernel, data) -> float:
    scale = math.fsum(abs(v) for v in kernel) * max(abs(v) for v in data)
    return 64 * n * (UNIT_ROUNDOFF * scale + SMALLEST_SUBNORMAL)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(SAMPLES)))
    n = draw(st.integers(min_value=1, max_value=64))
    vector = st.lists(SAMPLES[kind], min_size=n, max_size=n)
    return draw(vector), draw(vector)


@pytest.mark.parametrize("engine", list(ConvolutionEngine), ids=lambda e: e.value)
@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=cases())
def test_every_engine_matches_direct(engine, case):
    kernel, data = case
    n = len(kernel)
    want = direct_cyclic_convolution(kernel, data)
    got = engine.prepare(kernel)(data)
    worst = max(abs(g - w) for g, w in zip(got, want))
    assert worst <= error_bound(n, kernel, data), (engine.value, n, worst)


@st.composite
def signals(draw, n):
    kind = draw(st.sampled_from(sorted(SAMPLES)))
    return draw(st.lists(SAMPLES[kind], min_size=n, max_size=n))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("engine", list(ConvolutionEngine), ids=lambda e: e.value)
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_rader_dft_matches_naive_dft(engine, p, data):
    """rader_dft(x) against naive_dft(x) at every prime 2-101, under

        max_k |got[k] - want[k]| <= 64 * p * (u * ||x||_1 + 2**-1074).

    Every bin is a sum of p unit-modulus twiddles times samples, so its
    magnitude is at most ||x||_1, and the naive DFT errs by about p * u
    times that (plus the twiddles' own rounding).  Rader's bins are x[0]
    plus one output of a length-(p-1) cyclic convolution against a
    unit-modulus kernel, a sum of p - 1 terms of total size at most
    ||x||_1.  At p = 3 (mod 4) that convolution runs as two of length
    (p-1)/2 on u[s] = a[s] + a[s+h] and v[s] = +-(a[s] - a[s+h]), each at
    most double a term, against the twiddles' real and imaginary parts,
    and two roundings combine them; the halves' terms still total at most
    2 * ||x||_1.  Direct and two-factor accumulate about (p-1) * u times
    that; fast-prime's weights (|w| <= 2) and data differences keep each
    block's terms within a few times it, and below 101 it nests at most
    three blocks deep.  The factor 64 covers those growths and complex
    products.
    The lengths p - 1 include composite prime-power parts (12, 36, 40, 72,
    96), so fast-prime runs its nested plans here.
    """
    x = data.draw(signals(p))
    want = naive_dft(x)
    got = rader_dft(dft_plan(p), x, engine)
    worst = max(abs(g - w) for g, w in zip(got, want))
    bound = 64 * p * (UNIT_ROUNDOFF * math.fsum(abs(v) for v in x) + SMALLEST_SUBNORMAL)
    assert worst <= bound, (engine.value, p, worst, bound)
