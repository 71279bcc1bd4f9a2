"""Shared helpers for the test suite: seeded substreams, sample makers,
bit-exact comparison, fresh interpreters and the next prime."""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import primeconv
from primeconv.core import factorize
from primeconv.verification import complex_vector as complex_samples
from primeconv.verification import real_vector as real_samples
from primeconv.verification import substream

BASE_SEED = 42


def rng_for(index: int, seed: int = BASE_SEED) -> Random:
    """Independent generator per test concern: ``substream(seed, index)``."""
    return substream(seed, index)


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


def run_fresh(*args) -> subprocess.CompletedProcess:
    """Run ``python -W error *args`` in a new interpreter and return it with
    stdout and stderr captured as bytes.

    Any warning, the package's imports included, is an error there.  The
    package under test goes first on ``PYTHONPATH``; it need not be
    installed.
    """
    package_root = str(Path(primeconv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, timeout=600, env=env)


def next_prime(n: int) -> int:
    """Smallest prime greater than or equal to n."""
    candidate = n
    while factorize(candidate) != ((candidate, 1),):
        candidate += 1
    return candidate
