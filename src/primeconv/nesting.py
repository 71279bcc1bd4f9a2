"""Nesting over the coprime prime-power parts of composite lengths, shared
by the plan-based engines (Agarwal and Cooley, "New algorithms for digital
convolution", IEEE TASSP 1977).

With q the smallest part of n and m = n / q, the Good-Thomas map
k -> (k mod q, k mod m) makes a length-n cyclic convolution a q x m one:
an engine's block runs at length q on length-m lane vectors, its additions
lane by lane and each of its multiplications an inner plan's run.  Nothing
here knows an engine: every plan has a ``length`` and a ``run`` on
natural-order samples, and each block aligns its own input.  Both engines
build through ``kernel_blocks`` and ``nest`` and run through ``run_plan``.
"""

from itertools import chain
from operator import add, neg, sub
from typing import NamedTuple

from .core import Signal, as_signal, factorize
from .counting import OpTally


class NestedPlan(NamedTuple):
    """Precomputed kernel data for a length n = q * m with coprime q and m,
    for the block plan of any engine.

    Attributes:
        length: signal length n.
        order: order[a * m + c] is the k with k = a (mod q) and k = c
            (mod m), the Good-Thomas map read row by row.
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


def block_lengths(n: int) -> tuple[int, ...]:
    """The coprime prime-power parts p**e of n >= 2, read off ``factorize(n)``
    and sorted ascending: (n,) when n is a prime power."""
    parts = factorize(n)
    if len(parts) == 1:
        return (n,)
    return tuple(sorted(p ** e for p, e in parts))


def require_length(n: int, engine: str) -> None:
    if n < 2:
        raise ValueError(f"{engine} needs length >= 2, got {n}")


def kernel_blocks(kernel, engine: str) -> tuple[tuple, tuple[int, ...]]:
    """The samples of a kernel of length n >= 2 and ``block_lengths(n)``, the
    coprime prime-power parts of n, ascending: what ``nest`` builds
    ``engine``'s plan from.  A prime n is factored like any other."""
    b = as_signal(kernel).samples
    n = len(b)
    require_length(n, engine)
    return b, block_lengths(n)


def nest(b: tuple, blocks: tuple, build):
    """The plan of kernel samples ``b`` nested over ``blocks``, the coprime
    prime-power parts of len(b), ascending: ``build(b)`` for a single part.

    ``build`` makes an engine's block plan from kernel samples.  At
    n = q * m it runs once, at length q, on the Good-Thomas rows of the
    kernel as lane vectors, so its kernel arithmetic acts lane by lane;
    each length-m coefficient of that block then becomes an inner plan.
    Precomputation, never tallied.
    """
    n = len(b)
    if len(blocks) == 1:
        return build(b)
    q, inner = blocks[0], blocks[1:]
    m = n // q
    order = [0] * n
    for k in range(n):
        order[k % q * m + k % m] = k
    outer = build(_lane_rows(b, order, m, OpTally()))

    def inner_plan(vector):
        return nest(tuple(vector.lanes), inner, build)

    return NestedPlan(n, tuple(order), outer._make(
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
    try:
        return Signal(out)
    except ValueError as err:
        raise ValueError(f"the {plan.engine} engine overflowed at n = {len(z)}: the input "
                         f"was finite, but the result has a {err}") from None


def nested_counts(n: int, block_counts, engine: str) -> tuple[int, int]:
    """(multiplications, additions) of a length-n run nested over the
    prime-power parts of n.

    ``block_counts(q)`` gives one length-q block's (products, scalings,
    additions): its multiplications by a kernel coefficient, which become
    inner runs when nested, its multiplications by a constant, which
    become m lane mults, and its additions, which become m lane adds.  So
    M(q x m) = P(q)M(m) + S(q)m and A(q x m) = A(q)m + P(q)A(m).
    ``engine`` is the name a length below 2 is reported under.
    """
    require_length(n, engine)
    *outer, m = block_lengths(n)
    products, scalings, adds = block_counts(m)
    mults = products + scalings
    for q in reversed(outer):
        products, scalings, block_adds = block_counts(q)
        mults, adds = products * mults + scalings * m, block_adds * m + products * adds
        m *= q
    return mults, adds
