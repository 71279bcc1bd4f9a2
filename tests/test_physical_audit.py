"""Physical-operation audit: every binary ``+ - * /`` an engine performs on
data-derived values, counted by scalar types that charge their own
arithmetic, against the tallied counts and the documented exemptions
(docs/counting_model.md).

The engines charge their tallies once per loop rather than once per
operation; this audit is what checks those loop-level increments.
"""

import pytest

from helpers import bits, complex_samples, real_samples, rng_for
from primeconv.counting import OpTally
from primeconv.transforms import ConvolutionEngine

SIZES = tuple(range(2, 40)) + (97, 101, 498, 499)


class OpCounter:
    def __init__(self):
        self.mults = 0
        self.adds = 0


def counting_types(counter: OpCounter):
    """(float, complex) subclasses whose binary arithmetic charges ``counter``.

    ``+``/``-`` charge one add and ``*``/``/`` one mult whenever either
    operand is a counting value; results stay counting values.  Negation is
    free.  The arithmetic is the plain float/complex operation, so results
    are bit-identical to an uncounted run.
    """

    def lift(value):
        if isinstance(value, complex):
            return CountingComplex(value)
        return CountingFloat(value) if isinstance(value, float) else value

    def plain(value):
        if isinstance(value, complex):
            return complex(value)
        return float(value) if isinstance(value, float) else value

    def charged(op, kind):
        def forward(self, other):
            if not isinstance(other, (int, float, complex)):
                return NotImplemented
            setattr(counter, kind, getattr(counter, kind) + 1)
            return lift(op(plain(self), plain(other)))

        def reflected(self, other):
            if not isinstance(other, (int, float, complex)):
                return NotImplemented
            setattr(counter, kind, getattr(counter, kind) + 1)
            return lift(op(plain(other), plain(self)))

        return forward, reflected

    class Counting:
        __slots__ = ()
        __add__, __radd__ = charged(lambda a, b: a + b, "adds")
        __sub__, __rsub__ = charged(lambda a, b: a - b, "adds")
        __mul__, __rmul__ = charged(lambda a, b: a * b, "mults")
        __truediv__, __rtruediv__ = charged(lambda a, b: a / b, "mults")

        def __neg__(self):
            return lift(-plain(self))

    class CountingFloat(Counting, float):
        __slots__ = ()

    class CountingComplex(Counting, complex):
        __slots__ = ()

    return CountingFloat, CountingComplex


def run_counted(engine, n, make, index):
    """Run one engine on counting data: (physical, tallied, output, plain output)."""
    rng = rng_for(index)
    kernel, data = make(rng, n), make(rng, n)
    counter = OpCounter()
    lift = counting_types(counter)[isinstance(data[0], complex)]
    run = engine.prepare(kernel)
    tally = OpTally()
    out = run([lift(v) for v in data], tally)
    return (counter.mults, counter.adds), tally.counts, out, run(data)


@pytest.mark.parametrize("make", [real_samples, complex_samples], ids=["real", "complex"])
@pytest.mark.parametrize(
    "engine, physical",
    [
        # Direct: every operation is tallied.
        (ConvolutionEngine.DIRECT, lambda n: (n * n, n * (n - 1))),
        # Fast-prime: the zero-sum reconstruction of the last correction,
        # a left fold from 0 over the other n - 1, does n - 1 untallied adds.
        (ConvolutionEngine.FAST_PRIME,
         lambda n: (n * (n - 1) // 2 + 1, 3 * n * (n - 1) // 2 + 1 + (n - 1))),
        # Two-factor: every operation is tallied, the closed-form
        # recombination included.
        (ConvolutionEngine.WINOGRAD_TWO_FACTOR, lambda n: ((n - 1) ** 2 + 2, n * n + 2 * n - 4)),
    ],
    ids=["direct", "fast-prime", "two-factor"],
)
def test_physical_counts_match_closed_forms(engine, physical, make):
    for index, n in enumerate(SIZES):
        counted, tallied, out, plain_out = run_counted(engine, n, make, 700 + index)
        assert tallied == engine.predicted_counts(n), n
        assert counted == physical(n), n
        assert bits(out) == bits(plain_out), n
