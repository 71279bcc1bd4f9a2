"""Shared helpers for the test suite: seeded substreams, sample makers and
bit-exact comparison."""

from random import Random

BASE_SEED = 42


def rng_for(index: int, seed: int = BASE_SEED) -> Random:
    """Independent generator per test concern: Random((seed << 32) + index)."""
    return Random(((seed & 0xFFFFFFFFFFFFFFFF) << 32) + index)


def real_samples(rng: Random, n: int) -> list:
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def complex_samples(rng: Random, n: int) -> list:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]


def mixed_samples(rng: Random, n: int) -> list:
    """Float and complex samples alternating in one list, a float first."""
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) if k % 2
            else rng.uniform(-1.0, 1.0) for k in range(n)]


def bits(values) -> list:
    """Exact bit patterns of real or complex samples, signs of zero included.

    Counting subclasses compare by their plain float/complex value; the
    type of each sample (real or complex) is part of the pattern.
    """
    return [(complex(v).real.hex(), complex(v).imag.hex()) if isinstance(v, complex)
            else float(v).hex() for v in values]
