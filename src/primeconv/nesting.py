"""Nesting over the coprime prime-power parts of composite lengths, shared
by the plan-based engines (Agarwal and Cooley, "New algorithms for digital
convolution", IEEE TASSP 1977).

With q the smallest part of n and m = n / q, the Good-Thomas map
k -> (k mod q, k mod m) makes a length-n cyclic convolution a q x m one:
an engine's block runs at length q on length-m lane vectors, its additions
lane by lane and each of its multiplications an inner plan's run.  Nothing
here knows an engine: every plan has a ``length`` and a ``run`` on
natural-order samples, and each block aligns its own input.  Both engines
build through ``nest(kernel, kind)`` and run through ``run_plan``.
"""

from itertools import chain
from operator import add, neg, sub
from typing import NamedTuple

from .core import Signal, as_signal, checked_result, factorize
from .counting import OpTally, Scalar


class NestedPlan(NamedTuple):
    """Precomputed kernel data for a length n = q * m with coprime q and m,
    for the block plan of any engine.

    Attributes:
        length: signal length n.
        order: ``good_thomas_order(q, m)``, m = n / q.
        block: the engine's block plan of length q, q the smallest
            prime-power part of n, whose every kernel coefficient is the
            inner plan (length m) of one kernel vector.
    """

    length: int
    order: tuple
    block: "fast.FastPlan | polycrt.TwoFactorPlan"

    engine = property(lambda self: self.block.engine)

    def run(self, z, tally: OpTally) -> list:
        """Gather the Good-Thomas rows of natural-order ``z``, run any engine's block, scatter."""
        # An outer add is m lane adds; inner runs and lane scalings charge themselves.
        m = self.length // self.block.length
        ring = OpTally()
        outs = self.block.run(_lane_rows(z, self.order, m, tally), ring)
        tally.adds += ring.adds * m
        out = [None] * self.length
        for k, value in zip(self.order, chain.from_iterable(v.lanes for v in outs)):
            out[k] = value
        return out


class UnitPlan(NamedTuple):
    """The plan of a length-1 kernel, the nest over no parts, for any engine:
    one product ``coefficient * z[0]``, direct's bits, tallied (1, 0)."""

    engine: str
    coefficient: Scalar
    length = 1

    def run(self, z, tally: OpTally) -> list:
        tally.mults += 1
        return [self.coefficient * z[0]]


def block_lengths(n: int) -> tuple[int, ...]:
    """The coprime prime-power parts p**e of n >= 1, read off ``factorize(n)``
    and sorted ascending: () at n = 1, (n,) when n is a prime power."""
    parts = factorize(n)
    # The sort alone would give (n,) too; skipping it at a prime power halves
    # the cost of this call, which every plan build and count prediction makes.
    return (n,) if len(parts) == 1 else tuple(sorted([p ** e for p, e in parts]))


def good_thomas_order(q: int, m: int) -> tuple:
    """The Good-Thomas map of n = q * m, q and m coprime, read row by row:
    order[a * m + c] is the k < n with k = a (mod q) and k = c (mod m)."""
    return tuple(sorted(range(q * m), key=lambda k: (k % q, k % m)))


def nest(kernel, kind):
    """The plan of ``kernel`` for the engine whose block plan type is
    ``kind``, nested over the prime-power parts of its length n, ascending:
    ``UnitPlan`` at n = 1 and ``kind.build`` of its samples for a single part.

    At n = q * m, ``kind.build`` runs once, at length q, on the Good-Thomas
    rows of the kernel as lane vectors, so its kernel arithmetic acts lane
    by lane; each length-m coefficient of that block then becomes an inner
    plan, built from its raw lanes.  Precomputation, never tallied.
    """
    return _nest(as_signal(kernel).samples, kind)


def _nest(b: tuple, kind):
    n = len(b)
    blocks = block_lengths(n)
    if len(blocks) < 2:
        return kind.build(b) if blocks else UnitPlan(kind.engine, b[0])
    q, m = blocks[0], n // blocks[0]
    order = good_thomas_order(q, m)
    outer = kind.build(_lane_rows(b, order, m, OpTally()))

    def inner_plan(vector):
        return _nest(tuple(vector.lanes), kind)

    return NestedPlan(n, order, outer._make(
        tuple(map(inner_plan, field)) if isinstance(field, tuple) else inner_plan(field)
        for field in outer))


def _lane_rows(values, order, m: int, tally: OpTally) -> tuple:
    """The Good-Thomas rows of ``values``: ``values`` read in ``order``, cut into lanes of m."""
    flat = [values[k] for k in order]
    return tuple(_Lanes(flat[c:c + m], tally) for c in range(0, len(flat), m))


class _Lanes:
    """A length-m vector, one ring element of a nested plan's outer block.
    ``+``, ``-`` and ``0 + v`` act lane by lane and return a new vector (the
    schedules reuse their accumulators); ``plan * v`` runs that inner plan,
    and ``v * scalar`` and ``v / scalar`` scale every lane, m mults charged
    here.  ``nest`` builds blocks on kernel vectors with a scratch tally."""

    __slots__ = ("lanes", "tally")

    def __init__(self, lanes: list, tally: OpTally):
        self.lanes = lanes
        self.tally = tally

    def __add__(self, other):
        return _Lanes(list(map(add, self.lanes, other.lanes)), self.tally)

    def __radd__(self, zero):
        return _Lanes([zero + value for value in self.lanes], self.tally)

    def __sub__(self, other):
        return _Lanes(list(map(sub, self.lanes, other.lanes)), self.tally)

    def __neg__(self):
        return _Lanes(list(map(neg, self.lanes)), self.tally)

    def __mul__(self, scale):
        self.tally.mults += len(self.lanes)
        return _Lanes([value * scale for value in self.lanes], self.tally)

    def __truediv__(self, scale):
        self.tally.mults += len(self.lanes)
        return _Lanes([value / scale for value in self.lanes], self.tally)

    def __rmul__(self, plan):
        return _Lanes(plan.run(self.lanes, self.tally), self.tally)


def run_plan(plan, data, tally: OpTally | None) -> Signal:
    """Every plan's one checked entry: its output on natural-order ``data``, which
    each block aligns itself, charged to ``tally`` (a fresh one when None)."""
    z = as_signal(data).samples
    if len(z) != plan.length:
        raise ValueError(f"plan length {plan.length} does not match data length {len(z)}")
    out = plan.run(z, OpTally() if tally is None else tally)
    return checked_result(out, plan.engine, len(z))


def nested_counts(n: int, kind) -> tuple[int, int]:
    """(multiplications, additions) of a length-n run of engine ``kind``,
    folded over the prime-power parts of n from M(1) = 1 and A(1) = 0.

    ``kind.counts(q)`` gives one length-q block's (products, scalings,
    additions): its multiplications by a kernel coefficient, which become
    inner runs when nested, its multiplications by a constant, which
    become m lane mults, and its additions, which become m lane adds.  So
    M(q x m) = P(q)M(m) + S(q)m and A(q x m) = A(q)m + P(q)A(m).
    """
    mults, adds, m = 1, 0, 1
    for q in reversed(block_lengths(n)):
        products, scalings, block_adds = kind.counts(q)
        mults, adds = products * mults + scalings * m, block_adds * m + products * adds
        m *= q
    return mults, adds
