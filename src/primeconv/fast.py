"""Cyclic convolution in n(n-1)/2 + 1 multiplications per block, nested
over the coprime prime-power parts of composite lengths.

For a fixed kernel ``b`` the cyclic product with data ``z`` splits into a
rank-one part and an antisymmetric correction:

    out[i] = base - correction[i]

where ``base = mean(b) * sum(z)`` costs the single general multiplication,
and the corrections are signed sums over the strictly upper triangular
table

    table[i][j] = w[(i + j) mod n] * (y[j] - y[i]),    0 <= i < j <= n-1,

with ``y`` the reversal-aligned data and ``w[k] = mean(b) - b[k]``
precomputed from the kernel alone.  Swapping i and j only flips the sign
of the difference, so the strict upper triangle carries the whole table;
that is where the multiplication count n(n-1)/2 comes from.  The
correction components also sum to zero, which pins the last one without
any new information.  This is one block; it is exact for every n >= 2 and
only uses ring operations and a division by n.

Composite lengths nest (Agarwal and Cooley, "New algorithms for digital
convolution", IEEE TASSP 1977).  When n has two or more coprime
prime-power parts, q is the smallest and m = n / q.  The Good-Thomas map
k -> (k mod q, k mod m) turns the length-n cyclic convolution into a
q x m two-dimensional one, and the same block schedule, the same code,
runs at length q over ring elements that are length-m vectors: its
additions act lane by lane and each of its multiplications is a run of an
inner plan, built the same way from a length-m kernel vector.
Multiplications multiply across levels, so 498 = 2 * 3 * 83 costs
2 * 4 * 3404 = 27,232 of them against 123,754 for one block of 498.  A
prime power, composite ones such as 4, 8 or 9 included, runs as one
block, exact like every other.

The nesting here (``NestedPlan``, ``nest`` and the lane vectors) is
engine-agnostic: every plan, block or nested, has a ``length`` and a
``run`` on natural-order samples, each block aligns its own input, and
``NestedPlan.run`` only gathers Good-Thomas rows, runs its block on them
and scatters.  Two-factor (``polycrt``) nests through it too; both engines
build plans through ``_kernel_blocks`` and run them through ``_run_plan``.
"""

from functools import reduce
from itertools import chain
from operator import add, neg, sub
from typing import NamedTuple

from .counting import OpTally, Scalar
from .core import Signal, as_signal, is_prime, prime_factors, reverse_permute


class CompositeLengthWarning(UserWarning):
    """Never raised: a composite prime-power part (4, 8, 9, ...) runs as
    one exact block.  Kept so that code which filters it still finds it.
    """


class FastPlan(NamedTuple):
    """Precomputed kernel data for one block of the engine.

    The plan and trace records here are NamedTuples, not frozen
    dataclasses: creating a frozen dataclass costs about 1 ms at import,
    and every CLI run imports the package afresh.  Every field is kernel
    data, scalar or tuple, so ``nest`` can build a block lane by lane.

    Attributes:
        diff_weights: w[k] = kernel_mean - kernel[k]; the weights multiply
            pairwise data differences.  They sum to zero up to roundoff.
        kernel_mean: sum(kernel) / n; multiplies the data sum to form the
            rank-one term.
    """

    diff_weights: tuple
    kernel_mean: Scalar
    engine = "fast-prime"

    @property
    def length(self) -> int:
        return len(self.diff_weights)

    def run(self, z, tally: OpTally) -> list:
        """The block's output on natural-order data ``z``, which it aligns."""
        return _execute(self, z[:1] + z[:0:-1], tally)[2]


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
    block: "FastPlan | polycrt.TwoFactorPlan"

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
    """The coprime prime-power parts of n >= 2, ascending."""
    parts = []
    for p in prime_factors(n):
        part = p
        while n % (part * p) == 0:
            part *= p
        parts.append(part)
    return tuple(sorted(parts))


def _require_length(n: int) -> None:
    if n < 2:
        raise ValueError(f"need length >= 2, got {n}")


def _kernel_blocks(kernel) -> tuple[tuple, tuple[int, ...]]:
    """The samples of a kernel of length n >= 2 and the coprime prime-power
    parts of n, ascending: what ``nest`` builds a plan from."""
    b = as_signal(kernel).samples
    n = len(b)
    _require_length(n)
    if is_prime(n):  # one block, without factoring n: the common case
        return b, (n,)
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


def _block(b: tuple) -> FastPlan:
    # Kernel-only arithmetic: precomputation, never tallied.
    mean = reduce(add, b, 0) / len(b)
    return FastPlan(tuple(mean - value for value in b), mean)


def plan_create(kernel) -> "FastPlan | NestedPlan":
    """Build the plan for a kernel of length n >= 2: one block when n is a
    prime power (4, 8, 9, ... included), nested over its prime-power parts
    otherwise.

    All arithmetic here depends on the kernel only, so it is precomputation
    and contributes nothing to execution tallies.
    """
    return nest(*_kernel_blocks(kernel), _block)


def block_plan(kernel) -> FastPlan:
    """Build a single-block plan for a kernel of length n >= 2, whatever
    the factors of n; the pair-table tooling is defined on these."""
    return _block(_kernel_blocks(kernel)[0])


class ConvolutionTrace(NamedTuple):
    """Intermediate values of one single-block run, for verification tooling.

    Fields mirror the execution: ``aligned`` is the reversal-aligned data,
    ``base`` the rank-one term, ``component_sums`` the correction vector
    whose entries sum to zero exactly as computed, and ``output`` the
    convolution result.
    """

    aligned: tuple
    base: Scalar
    component_sums: tuple
    output: Signal


def _execute(plan: FastPlan, y, tally: OpTally):
    # One block on aligned ring elements y (scalars, or _Lanes when the plan
    # is a nested plan's block); returns (base, sums, out).  Each loop does
    # its arithmetic inline (no Python call per scalar operation), keeps the
    # operation order of the schedule described in the module docstring,
    # and charges the tally once with that loop's exact count.
    n = plan.length

    base = plan.kernel_mean * reduce(add, y)
    tally.adds += n - 1
    tally.mults += 1

    # Signed fold over row i: -table[j][i] for j < i, then +table[i][j] for
    # j > i, ascending j.  Each pair (i, j) is visited once: table[i][j] is
    # added to row i's accumulator and subtracted from col[j], which holds
    # -table[0][j] - ... - table[i][j] after row i.  So the table is never
    # held, and row i starts from col[i], its finished column part.  Row 0
    # seeds its accumulator with its first entry and col by a sign flip
    # (bookkeeping, not arithmetic).  Column n - 1 is the zero-sum correction
    # below, so the j = n - 1 entry of each row has no column.
    #
    # Rows 1 .. n - 2 run in groups of four, a..d, so that four pairs share
    # each load and store of col[j].  A group first takes its six in-group
    # pairs, row by row, which finishes the column parts of b, c and d
    # before those rows start from them.  One pass over j > d then forms
    # the four terms of column j, adds each to its row's accumulator and
    # subtracts them from col[j] in row order.  So every accumulator, row or
    # column, takes the same operations in the same order as one row at a
    # time would give it; only the order in which terms are formed changes,
    # and on lane vectors each term is an independent inner run.  Fewer
    # than four remaining rows run one at a time.
    w2 = plan.diff_weights * 2
    y0 = y[0]
    first = [wj * (yj - y0) for wj, yj in zip(w2[1:n], y[1:])]
    acc = first[0]
    for term in first[1:]:
        acc += term
    sums = [acc]
    col = [None, *[-term for term in first[:-1]]]
    last = n - 1
    y_last = y[last]
    grouped = 1 + (n - 2) // 4 * 4  # rows 1 .. grouped - 1 run in fours
    for a in range(1, grouped, 4):
        b, c, d = a + 1, a + 2, a + 3
        ya, yb, yc, yd = y[a:a + 4]
        wa, wb, wc, wd = w2[a:a + n], w2[b:b + n], w2[c:c + n], w2[d:d + n]
        ab, ac, ad = wa[b] * (yb - ya), wa[c] * (yc - ya), wa[d] * (yd - ya)
        bc, bd = wb[c] * (yc - yb), wb[d] * (yd - yb)
        cd = wc[d] * (yd - yc)
        sa = col[a] + ab + ac + ad
        sb = col[b] - ab + bc + bd
        sc = col[c] - ac - bc + cd
        sd = col[d] - ad - bd - cd
        for j in range(d + 1, last):
            yj = y[j]
            ta = wa[j] * (yj - ya)
            tb = wb[j] * (yj - yb)
            tc = wc[j] * (yj - yc)
            td = wd[j] * (yj - yd)
            sa += ta
            sb += tb
            sc += tc
            sd += td
            col[j] = col[j] - ta - tb - tc - td
        sums += (sa + wa[last] * (y_last - ya), sb + wb[last] * (y_last - yb),
                 sc + wc[last] * (y_last - yc), sd + wd[last] * (y_last - yd))
    for i in range(grouped, last):
        yi = y[i]
        wi = w2[i:i + n]  # wi[j] = w[(i + j) mod n]
        acc = col[i]
        for j in range(i + 1, last):
            term = wi[j] * (y[j] - yi)
            acc += term
            col[j] -= term
        sums.append(acc + wi[last] * (y_last - yi))
    pairs = n * (n - 1) // 2
    tally.adds += pairs + (n - 1) * (n - 2)
    tally.mults += pairs
    # The corrections are constrained to sum to zero; reconstructing the
    # last one resolves a linear dependency rather than computing anything
    # new, so it stays off the tally (see docs/counting_model.md).  A plain
    # left fold from 0, not sum(): from Python 3.12 sum() compensates exact
    # floats, which would change the bits and break the exact cancellation.
    sums.append(-reduce(add, sums, 0))

    out = [base - value for value in sums]
    tally.adds += n
    return base, sums, out


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


def _checked(plan, data) -> Signal:
    z = as_signal(data)
    if len(z) != plan.length:
        raise ValueError(f"plan length {plan.length} does not match data length {len(z)}")
    return z


def _run_plan(plan, data, tally: OpTally | None) -> Signal:
    """Every plan's one checked entry: its output on natural-order ``data``, which
    each block aligns itself, charged to ``tally`` (a fresh one when None)."""
    z = _checked(plan, data).samples
    out = plan.run(z, OpTally() if tally is None else tally)
    try:
        return Signal(out)
    except ValueError as err:
        raise ValueError(f"the {plan.engine} engine overflowed at n = {len(z)}: the input "
                         f"was finite, but the result has a {err}") from None


def fast_cyclic_convolution(plan: "FastPlan | NestedPlan", data,
                            tally: OpTally | None = None) -> Signal:
    """Run the reduced-multiplication engine against ``data``.

    Tallies exactly predicted_counts(n) = (M(n), A(n)): for a single block
    M(n) = n(n-1)/2 + 1 multiplications and A(n) = 3n(n-1)/2 + 1 additions,
    and nesting q over m gives M(q)M(m) and A(q)m + M(q)A(m).
    """
    return _run_plan(plan, data, tally)


def trace_convolution(plan: FastPlan, data) -> ConvolutionTrace:
    """Run a single-block plan and expose its intermediates (plain mode)."""
    if not isinstance(plan, FastPlan):
        raise ValueError(f"trace_convolution needs a single-block plan; the length-"
                         f"{plan.length} plan is nested (build one with block_plan)")
    y = reverse_permute(_checked(plan, data))
    base, sums, out = _execute(plan, y, OpTally())
    return ConvolutionTrace(y, base, tuple(sums), Signal(out))


def nested_counts(n: int, block_counts) -> tuple[int, int]:
    """(multiplications, additions) of a length-n run nested over the
    prime-power parts of n.

    ``block_counts(q)`` gives one length-q block's (products, scalings,
    additions): its multiplications by a kernel coefficient, which become
    inner runs when nested, its multiplications by a constant, which
    become m lane mults, and its additions, which become m lane adds.  So
    M(q x m) = P(q)M(m) + S(q)m and A(q x m) = A(q)m + P(q)A(m).
    """
    _require_length(n)
    *outer, m = block_lengths(n)
    products, scalings, adds = block_counts(m)
    mults = products + scalings
    for q in reversed(outer):
        products, scalings, block_adds = block_counts(q)
        mults, adds = products * mults + scalings * m, block_adds * m + products * adds
        m *= q
    return mults, adds


def _block_counts(q: int) -> tuple[int, int, int]:
    return (q * (q - 1) // 2 + 1, 0, 3 * q * (q - 1) // 2 + 1)


def predicted_counts(n: int) -> tuple[int, int]:
    """Closed-form (multiplications, additions) for a length-n run.

    A block of length q costs M(q) = q(q-1)/2 + 1 and A(q) = 3q(q-1)/2 + 1;
    nesting q over m costs M(q)M(m) and A(q)m + M(q)A(m).
    """
    return nested_counts(n, _block_counts)


def multiplication_lower_bound(n: int) -> int:
    """Winograd's minimum 2n - d(n) multiplications for length-n cyclic
    convolution by a bilinear algorithm over the rationals, where d(n)
    counts the divisors of n (the irreducible factors of x^n - 1).
    Reported alongside measured counts; never used as a pass/fail gate."""
    if n < 2:
        raise ValueError(f"length must be >= 2, got {n}")
    return 2 * n - sum(1 for d in range(1, n + 1) if n % d == 0)
