"""Shared helpers for the test suite: seeded substreams, sample makers,
bit-exact comparison and the three engines behind one call shape."""

from random import Random

from primeconv.core import direct_cyclic_convolution
from primeconv.fast import fast_cyclic_convolution, plan_create
from primeconv.polycrt import winograd_two_factor_convolution

BASE_SEED = 42


def rng_for(index: int, seed: int = BASE_SEED) -> Random:
    """Independent generator per test concern: Random((seed << 32) + index)."""
    return Random(((seed & 0xFFFFFFFFFFFFFFFF) << 32) + index)


def real_samples(rng: Random, n: int) -> list:
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def complex_samples(rng: Random, n: int) -> list:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]


def bits(values) -> list:
    """Exact bit patterns of real or complex samples, signs of zero included.

    Counting subclasses compare by their plain float/complex value; the
    type of each sample (real or complex) is part of the pattern.
    """
    return [(complex(v).real.hex(), complex(v).imag.hex()) if isinstance(v, complex)
            else float(v).hex() for v in values]


def direct_engine(kernel, data, tally):
    return direct_cyclic_convolution(kernel, data, tally)


def fast_engine(kernel, data, tally):
    return fast_cyclic_convolution(plan_create(kernel), data, tally)


def two_factor_engine(kernel, data, tally):
    return winograd_two_factor_convolution(kernel, data, tally, require_prime=False)
