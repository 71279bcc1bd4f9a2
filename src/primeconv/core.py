"""Signals, primes, and the quadratic-time convolution oracle.

Conventions used throughout the package: signals are zero-indexed, cyclic
indices are reduced mod n, and the cyclic product of kernel ``b`` with data
``z`` is

    out[p] = sum_l b[l] * z[(p - l) mod n].

The direct evaluation implemented here is the reference that every other
engine is checked against, so it stays deliberately plain.
"""

import cmath
from collections.abc import Iterable, Sequence

from .counting import OpTally, Scalar


class Signal(Sequence):
    """Immutable fixed-length sequence of real or complex samples."""

    __slots__ = ("_samples",)

    def __init__(self, samples: Iterable[Scalar]):
        samples = tuple(samples)
        if not samples:
            raise ValueError("a signal needs at least one sample")
        # One C-level pass; cmath.isfinite takes ints, Fractions, Decimals,
        # floats and complex alike.  Only a failure walks the samples, to
        # name the first bad one.
        if not all(map(cmath.isfinite, samples)):
            for value in samples:
                if not cmath.isfinite(value):
                    raise ValueError(f"non-finite sample {value!r}")
        self._samples = samples

    @property
    def samples(self) -> tuple:
        return self._samples

    @property
    def is_complex(self) -> bool:
        return any(isinstance(value, complex) for value in self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Signal(self._samples[index])
        return self._samples[index]

    def __iter__(self):
        return iter(self._samples)

    def __eq__(self, other):
        if isinstance(other, Signal):
            return self._samples == other._samples
        if isinstance(other, (tuple, list)):
            return self._samples == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._samples)

    def __repr__(self):
        return f"Signal({list(self._samples)!r})"


def as_signal(values) -> Signal:
    """Wrap an iterable of samples as a Signal (no copy if already one)."""
    return values if isinstance(values, Signal) else Signal(values)


def is_prime(n: int) -> bool:
    """Trial-division primality test, fine for the sizes this package meets."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    factor = 3
    while factor * factor <= n:
        if n % factor == 0:
            return False
        factor += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime greater than or equal to n."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 2, ascending."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    factors = []
    remaining = n
    factor = 2
    while factor * factor <= remaining:
        if remaining % factor == 0:
            factors.append(factor)
            while remaining % factor == 0:
                remaining //= factor
        factor += 1 if factor == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return tuple(factors)


def direct_cyclic_convolution(kernel, data, tally: OpTally | None = None) -> Signal:
    """Cyclic convolution by the defining double loop.

    Tallies exactly n*n multiplications and n*(n-1) additions.  Accepts
    n = 1 (a single product).  This is the oracle: no rearrangement, no
    shared subexpressions.
    """
    b = as_signal(kernel)
    z = as_signal(data)
    if len(b) != len(z):
        raise ValueError(f"kernel length {len(b)} does not match data length {len(z)}")
    if tally is None:
        tally = OpTally()
    n = len(b)
    b0, rest = b.samples[0], b.samples[1:]
    # rev[n - 1 - p + l] == z[(p - l) mod n], so output p reads one window.
    rev = z.samples[::-1] * 2
    out = []
    for p in range(n):
        acc = b0 * rev[n - 1 - p]
        for bl, zl in zip(rest, rev[n - p:2 * n - 1 - p]):
            acc += bl * zl
        out.append(acc)
    tally.mults += n * n
    tally.adds += n * (n - 1)
    return Signal(out)


def direct_predicted_counts(n: int) -> tuple[int, int]:
    """(multiplications, additions) the direct evaluation performs at length n."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    return (n * n, n * (n - 1))


def max_relative_error(got, want) -> float:
    """Infinity-norm relative error with the scale floored at one.

    max_k |got[k] - want[k]| / max(1, max_k |want[k]|)
    """
    g = as_signal(got).samples
    w = as_signal(want).samples
    if len(g) != len(w):
        raise ValueError(f"length mismatch: {len(g)} vs {len(w)}")
    scale = max(1.0, max(abs(value) for value in w))
    return max(abs(a - b) for a, b in zip(g, w)) / scale
