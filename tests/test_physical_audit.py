"""Physical-operation audit: every binary ``+ - * /`` an engine, or Rader's
DFT around its engine runs, performs on data-derived values, counted by
scalar types that charge their own arithmetic, against the tallied counts
and the documented exemptions (docs/counting_model.md).

The engines charge their tallies once per loop rather than once per
operation; this audit is what checks those loop-level increments.
"""

import pytest

from helpers import bits, complex_samples, mixed_samples, real_samples, rng_for
from primeconv import transforms
from primeconv.core import Signal
from primeconv.counting import OpTally
from primeconv.fast import predicted_counts
from primeconv.nesting import block_lengths
from primeconv.polycrt import two_factor_predicted_counts
from primeconv.transforms import ConvolutionEngine, DftPlan, dft_plan, rader_dft

# Sizes 2-39 cover every remainder of fast-prime's four-row groups on scalar
# blocks; 77 = 7 * 11 and 143 = 11 * 13 run the groups on lane vectors; 1
# is every engine's one product.
SIZES = tuple(range(1, 40)) + (60, 77, 97, 101, 143, 210, 498, 499)


def rebuild_adds(n: int) -> int:
    """Fast-prime's untallied zero-sum rebuild: E(1) = 0 over no parts, and
    E(q x m) = (q - 1) m + M(q) E(m), with q the smallest prime-power part
    of n and m = n / q, so E(q) = q - 1 for one block."""
    parts = block_lengths(n)
    if not parts:
        return 0
    q, m = parts[0], n // parts[0]
    return (q - 1) * m + predicted_counts(q)[0] * rebuild_adds(m)


class OpCounter:
    def __init__(self):
        self.mults = 0
        self.adds = 0


def counting_types(counter: OpCounter):
    """Scalar lifts ``(data, kernel)``, each mapping a float or complex
    sample to a subclass of its own type.

    Data values count: ``+``/``-`` charge one add and ``*``/``/`` one mult
    to ``counter`` whenever either operand is a data value, and the result
    is a data value.  Kernel values mark what is derived from the kernel
    alone: their arithmetic with each other or with plain numbers is free
    and stays kernel-valued.  The mark is needed because a plain complex on
    the left of a float subclass computes without consulting the subclass,
    so a complex kernel weight times a real data difference would go
    uncharged.  Negation is free, and ``.real`` and ``.imag`` keep the
    mark, as floats: Rader's split runs the parts of its data through real
    engine runs against the parts of its kernel.  The arithmetic is the
    plain float/complex operation, so results are bit-identical to an
    uncounted run.
    """

    def plain(value):
        if isinstance(value, complex):
            return complex(value)
        return float(value) if isinstance(value, float) else value

    def lifter(real_type, complex_type):
        def lift(value):
            if isinstance(value, complex):
                return complex_type(value)
            return real_type(value) if isinstance(value, float) else value
        return lift

    def charged(op, kind):
        def apply(a, b):
            if isinstance(a, Counting) or isinstance(b, Counting):
                setattr(counter, kind, getattr(counter, kind) + 1)
                return data(op(plain(a), plain(b)))
            return kernel(op(plain(a), plain(b)))

        def forward(self, other):
            if not isinstance(other, (int, float, complex)):
                return NotImplemented
            return apply(self, other)

        def reflected(self, other):
            if not isinstance(other, (int, float, complex)):
                return NotImplemented
            return apply(other, self)

        return forward, reflected

    class Lifted:
        __slots__ = ()
        __add__, __radd__ = charged(lambda a, b: a + b, "adds")
        __sub__, __rsub__ = charged(lambda a, b: a - b, "adds")
        __mul__, __rmul__ = charged(lambda a, b: a * b, "mults")
        __truediv__, __rtruediv__ = charged(lambda a, b: a / b, "mults")

        def __neg__(self):
            return (data if isinstance(self, Counting) else kernel)(-plain(self))

        @property
        def real(self):
            return (data if isinstance(self, Counting) else kernel)(plain(self).real)

        @property
        def imag(self):
            return (data if isinstance(self, Counting) else kernel)(plain(self).imag)

    class Counting(Lifted):
        __slots__ = ()

    class CountingFloat(Counting, float):
        __slots__ = ()

    class CountingComplex(Counting, complex):
        __slots__ = ()

    class KernelFloat(Lifted, float):
        __slots__ = ()

    class KernelComplex(Lifted, complex):
        __slots__ = ()

    data = lifter(CountingFloat, CountingComplex)
    kernel = lifter(KernelFloat, KernelComplex)
    return data, kernel


def run_counted(engine, n, make, index):
    """Run one engine on counting data and a marked kernel:
    (physical, tallied, output, plain output)."""
    rng = rng_for(index)
    kernel, data = make(rng, n), make(rng, n)
    counter = OpCounter()
    lift_data, lift_kernel = counting_types(counter)
    run = engine.prepare([lift_kernel(v) for v in kernel])
    tally = OpTally()
    out = run([lift_data(v) for v in data], tally)
    return (counter.mults, counter.adds), tally.counts, out, engine.prepare(kernel)(data)


# Each engine's physical (mults, adds) at length n.
PHYSICAL = {
    # Direct: every operation is tallied.
    ConvolutionEngine.DIRECT: lambda n: (n * n, n * (n - 1)),
    # Fast-prime: the zero-sum reconstruction of the last correction, a
    # left fold from 0 over the other components, is untallied; one block
    # does n - 1 such adds, nested plans E(n) in all.
    ConvolutionEngine.FAST_PRIME:
        lambda n: (predicted_counts(n)[0], predicted_counts(n)[1] + rebuild_adds(n)),
    # Two-factor: every operation is tallied, the closed-form recombination
    # and, nested, the lane scalings by 1/q included.
    ConvolutionEngine.WINOGRAD_TWO_FACTOR: two_factor_predicted_counts,
}
ENGINE_IDS = ["direct", "fast-prime", "two-factor"]
MAKERS = pytest.mark.parametrize("make", [real_samples, complex_samples, mixed_samples],
                                 ids=["real", "complex", "mixed"])


@MAKERS
@pytest.mark.parametrize("engine", list(PHYSICAL), ids=ENGINE_IDS)
def test_physical_counts_match_closed_forms(engine, make):
    assert (rebuild_adds(1), rebuild_adds(498)) == (0, 1237)
    for index, n in enumerate(SIZES):
        counted, tallied, out, plain_out = run_counted(engine, n, make, 700 + index)
        assert tallied == engine.predicted_counts(n), n
        assert counted == PHYSICAL[engine](n), n
        assert bits(out) == bits(plain_out), n


def rader_physical(engine, p: int) -> tuple[int, int]:
    """Rader's physical (mults, adds) at prime p.  At p = 3 (mod 4), the
    2 x h split with h = (p - 1) / 2, four real engine runs at length h, two
    per half kernel on the real and imaginary parts of its rows, and 8h
    float adds: the rows' sums and differences, part by part, and the four
    lines of the combine.  Otherwise one engine run at length p - 1.  Either
    way p adds for X[0] (a fold from 0) and p - 1 for the x[0] + scatter."""
    if (p - 1) % 4 != 2:
        mults, adds = PHYSICAL[engine](p - 1)
        return mults, adds + (2 * p - 1)
    h = (p - 1) // 2
    mults, adds = PHYSICAL[engine](h)
    return 4 * mults, 4 * adds + 8 * h + (2 * p - 1)


RADER_AT_499 = {
    ConvolutionEngine.DIRECT: (248_004, 249_997),
    ConvolutionEngine.FAST_PRIME: (54_464, 171_645),
    ConvolutionEngine.WINOGRAD_TWO_FACTOR: (134_852, 147_661),
}


@MAKERS
@pytest.mark.parametrize("engine", list(PHYSICAL), ids=ENGINE_IDS)
def test_rader_physical_counts_match_closed_forms(cold_rader_runners, engine, make):
    assert rader_physical(engine, 499) == RADER_AT_499[engine]
    for index, p in enumerate((2, 3, 5, 7, 13, 31, 499)):
        data = make(rng_for(750 + index), p)
        plan = dft_plan(p)
        plain_out = rader_dft(plan, data, engine)
        # The counted run marks the twiddles as kernel values; the runner kept
        # for the plain plan, which compares equal, must not serve it.
        transforms._rader_runner.cache_clear()
        counter = OpCounter()
        lift_data, lift_kernel = counting_types(counter)
        marked = DftPlan(*plan[:4], Signal(map(lift_kernel, plan.kernel)))
        out = rader_dft(marked, [lift_data(v) for v in data], engine)
        assert (counter.mults, counter.adds) == rader_physical(engine, p), p
        assert bits(out) == bits(plain_out), p
