"""Signals, factorisation, and the quadratic-time convolution oracle.

Conventions used throughout the package: signals are zero-indexed, cyclic
indices are reduced mod n, and the cyclic product of kernel ``b`` with data
``z`` is

    out[p] = sum_l b[l] * z[(p - l) mod n].

The direct evaluation implemented here is the reference that every other
engine is checked against: its arithmetic is the plain defining sum, and
only its loop is grouped, four outputs per pass.
"""

import cmath
from collections.abc import Iterable, Sequence

from .counting import OpTally, Scalar


class Signal(Sequence):
    """Immutable fixed-length sequence of real or complex samples."""

    __slots__ = ("_samples", "_hash")

    def __init__(self, samples: Iterable[Scalar]):
        samples = tuple(samples)
        if not samples:
            raise ValueError("a signal needs at least one sample")
        # One C-level pass; cmath.isfinite takes ints, Fractions, Decimals,
        # floats and complex alike.  Only a failure walks the samples, to
        # name the first bad one or to pass an exact one beyond float range.
        try:
            finite = all(map(cmath.isfinite, samples))
        except OverflowError:
            finite = False
        if not finite:
            for value in samples:
                if not _is_finite(value):
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
        # The samples never change, so their hash is taken once and kept.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._samples)
            return self._hash

    def __repr__(self):
        return f"Signal({list(self._samples)!r})"


def _is_finite(value) -> bool:
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an int or Fraction too large for a float is finite
        return True


def as_signal(values) -> Signal:
    """Wrap an iterable of samples as a Signal (no copy if already one)."""
    return values if isinstance(values, Signal) else Signal(values)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorisation of n >= 2 as ((p, e), ...), p ascending.

    One trial-division pass, 2 first and then the odd factors, fine for the
    sizes this package meets.  The only place the package factors: n is
    prime exactly when ``factorize(n) == ((n, 1),)``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    factors = []
    factor = 2
    while factor * factor <= n:
        if n % factor == 0:
            power = 0
            while n % factor == 0:
                n //= factor
                power += 1
            factors.append((factor, power))
        factor += 1 if factor == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def direct_cyclic_convolution(kernel, data, tally: OpTally | None = None) -> Signal:
    """Cyclic convolution by the defining double loop.

    Tallies exactly n*n multiplications and n*(n-1) additions.  Accepts
    n = 1 (a single product).  This is the oracle: each output starts from
    b[0]*z[p] and adds b[l]*z[(p-l) mod n] in ascending l, with no shared
    subexpressions.  Four outputs share one pass over l; that grouping
    changes the loop, not the arithmetic.
    """
    b = as_signal(kernel)
    z = as_signal(data)
    if len(b) != len(z):
        raise ValueError(f"kernel length {len(b)} does not match data length {len(z)}")
    if tally is None:
        tally = OpTally()
    n = len(b)
    zs = z.samples
    b0, rest = b.samples[0], b.samples[1:]
    # rev[n - 1 - p + l] == z[(p - l) mod n], so output p reads one window.
    rev = zs[::-1] * 2
    out = []
    grouped = n - n % 4
    # Outputs p ... p+3 in one pass: each b[l] is read once, and output
    # p+k's window is output p's shifted by k, so the sample output p reads
    # at step l moves down a register for output p+1 at step l+1.
    for p in range(0, grouped, 4):
        x1, x2, x3 = zs[p:p + 3]
        a0, a1, a2, a3 = b0 * x1, b0 * x2, b0 * x3, b0 * zs[p + 3]
        for bl, x0 in zip(rest, rev[n - p:2 * n - 1 - p]):
            a0 += bl * x0
            a1 += bl * x1
            a2 += bl * x2
            a3 += bl * x3
            x1, x2, x3 = x0, x1, x2
        out += (a0, a1, a2, a3)
    for p in range(grouped, n):
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
