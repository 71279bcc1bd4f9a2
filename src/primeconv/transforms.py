"""Applications built on the convolution engines.

Provides the engine protocol (``ConvolutionEngine``: kernel preparation and
closed-form budgets), a naive DFT oracle, prime-length DFT via the Rader
reindexing (one length p-1 cyclic convolution against a fixed twiddle
kernel, nested as 2 x (p-1)/2 at p = 3 mod 4), and linear
convolution by zero padding to the length where the chosen engine's
predicted count is least.
"""

import cmath
import math
from enum import Enum
from functools import lru_cache, reduce
from operator import add, sub
from typing import NamedTuple

from .counting import OpTally
from .core import (
    Signal,
    as_signal,
    direct_cyclic_convolution,
    checked_result,
    direct_predicted_counts,
    factorize,
)
from .fast import fast_cyclic_convolution, plan_create
from .fast import predicted_counts as fast_predicted_counts
from .nesting import good_thomas_order
from .polycrt import (
    two_factor_plan,
    two_factor_predicted_counts,
    winograd_two_factor_convolution,
)


class ConvolutionEngine(Enum):
    """The three cyclic-convolution engines behind one protocol.

    ``prepare(kernel)`` returns a runner for that kernel and
    ``predicted_counts(n)`` the closed-form budget its runs tally.  The
    engine functions are looked up as this module's globals when called, so
    wrapping or replacing ``transforms.<name>`` reaches every engine call.
    """

    DIRECT = "direct"
    FAST_PRIME = "fast-prime"
    WINOGRAD_TWO_FACTOR = "winograd-two-factor"

    @classmethod
    def from_name(cls, name: str) -> "ConvolutionEngine":
        for engine in cls:
            if engine.value == name:
                return engine
        names = ", ".join(engine.value for engine in cls)
        raise ValueError(f"unknown engine {name!r}; expected one of: {names}")

    def prepare(self, kernel):
        """Do this engine's kernel-only work once and return
        ``run(data, tally=None) -> Signal``.  Fast-prime and two-factor
        build their plans here, nested over the coprime prime-power parts
        of composite lengths; direct only checks the kernel."""
        if self is ConvolutionEngine.FAST_PRIME:
            plan = plan_create(kernel)
            return lambda data, tally=None: fast_cyclic_convolution(plan, data, tally)
        if self is ConvolutionEngine.WINOGRAD_TWO_FACTOR:
            plan = two_factor_plan(kernel)
            return lambda data, tally=None: winograd_two_factor_convolution(plan, data, tally)
        kernel = as_signal(kernel)
        return lambda data, tally=None: direct_cyclic_convolution(kernel, data, tally)

    def predicted_counts(self, n: int) -> tuple[int, int]:
        """Closed-form (multiplications, additions) one length-n run tallies."""
        if self is ConvolutionEngine.FAST_PRIME:
            return fast_predicted_counts(n)
        if self is ConvolutionEngine.WINOGRAD_TWO_FACTOR:
            return two_factor_predicted_counts(n)
        return direct_predicted_counts(n)


def cyclic_convolution(kernel, data, engine: ConvolutionEngine = ConvolutionEngine.DIRECT,
                       tally: OpTally | None = None) -> Signal:
    """Cyclic convolution through the selected engine.

    Every engine accepts every length n >= 1, prime or composite, and at
    n = 1 each gives direct's one product.  Callers that reuse one kernel
    should hold on to ``engine.prepare(kernel)`` instead.
    """
    return engine.prepare(kernel)(data, tally)


def _unit_roots(n: int) -> tuple:
    """exp(-2*pi*i*t/n) for t = 0 .. n-1."""
    return tuple(cmath.exp(complex(0.0, -2.0 * math.pi * t / n)) for t in range(n))


def naive_dft(data) -> Signal:
    """Defining double-loop DFT, X[k] = sum_j x[j] * exp(-2*pi*i*j*k/n).

    Quadratic and plain on purpose: this is the oracle for the fast path.
    """
    x = as_signal(data).samples
    n = len(x)
    roots = _unit_roots(n)
    out = []
    for k in range(n):
        acc = complex(0.0, 0.0)
        for j, value in enumerate(x):
            acc += value * roots[(j * k) % n]
        out.append(acc)
    return Signal(out)


def find_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p: 1 at p = 2.

    p is prime when ``factorize(p) == ((p, 1),)``, and g generates iff
    g^((p-1)/q) != 1 (mod p) for every prime q of ``factorize(p - 1)``.
    A prime has a generator, so the search always returns.
    """
    if factorize(p) != ((p, 1),):
        raise ValueError(f"need a prime p, got {p}")
    checks = [(p - 1) // q for q, _ in factorize(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in checks))


class DftPlan(NamedTuple):
    """Fixed data for a prime-length DFT: index maps and twiddle kernel.

    input_order[m] = g^{-m} mod p selects the permuted samples that feed
    the convolution; output_order[l] = g^l mod p scatters convolution
    results onto DFT bins 1 .. p-1.  ``kernel`` holds twiddles
    exp(-2*pi*i*g^t/p).  Construction is precomputation.  A NamedTuple,
    like the fast plans, so importing the package never loads
    ``dataclasses``, and immutable, so one plan serves every caller.
    """

    length: int
    root: int
    input_order: tuple
    output_order: tuple
    kernel: Signal


@lru_cache(maxsize=None, typed=True)
def dft_plan(p: int) -> DftPlan:
    """The Rader reindexing plan for prime p, built once per p per process.

    Kept unbounded, at O(p) per entry.  ``typed`` keeps ``dft_plan(5.0)`` a
    TypeError after ``dft_plan(5)``.  The powers of g come from one running
    product, x = x * g mod p, and input_order reads them backwards:
    g^{-m} = g^{(p-1)-m}.
    """
    g = find_primitive_root(p)
    output_order = [1]
    for _ in range(p - 2):
        output_order.append(output_order[-1] * g % p)
    input_order = output_order[:1] + output_order[:0:-1]
    roots = _unit_roots(p)
    kernel = Signal(roots[k] for k in output_order)
    return DftPlan(p, g, tuple(input_order), tuple(output_order), kernel)


@lru_cache(maxsize=None)
def _rader_runner(plan: DftPlan, engine: ConvolutionEngine):
    """Rader's convolution for ``plan`` through ``engine``, built once per
    (plan, engine) per process: a function from the p samples to (bin,
    convolution sample) pairs for bins 1 .. p-1.

    At p = 3 (mod 4) h = (p - 1) / 2 is odd, and length 2h nests as the
    Good-Thomas 2 x h: ``good_thomas_order(2, h)``, composed here with the
    plan's input and output orders, makes a request one gather into two
    rows and one scatter of two.  Between them the 2-point block runs the
    rows' sum and difference through two length-h engine runs, A and C,
    and returns A + C and A - C: 4h adds, and direct's (2h)^2 products
    become 2h^2.  Its kernels, the kernel rows' half sum and difference,
    are computed from kernel[:h] alone, as kernel[t + h] = conj(kernel[t])
    (g^h = -1 mod p).  At p = 1 (mod 4) and p = 2 the engine runs the
    whole kernel once.

    Keyed by value, so equal plans share one runner; a ``Signal`` keeps
    its hash, so a warm lookup hashes the index orders, not the twiddles.
    The engine runners look the engine function up when called, so
    replacing ``transforms.<name>`` still reaches every later DFT.
    """
    kernel, p = plan.kernel, plan.length
    if len(kernel) % 4 != 2:
        run = engine.prepare(kernel)
        return lambda xs: zip(plan.output_order, run([xs[i] for i in plan.input_order]).samples)
    h = len(kernel) // 2
    order = good_thomas_order(2, h)
    rows = [kernel[k] if k < h else kernel[k - h].conjugate() for k in order]
    pairs = list(zip(rows[:h], rows[h:]))
    run_sum = engine.prepare([(x + y) / 2 for x, y in pairs])
    run_diff = engine.prepare([(x - y) / 2 for x, y in pairs])
    gather = [plan.input_order[k] for k in order]
    even, odd = gather[:h], gather[h:]
    bins = [plan.output_order[k] for k in order]

    def split(xs):
        row0, row1 = [xs[i] for i in even], [xs[i] for i in odd]
        a = run_sum(checked_result(map(add, row0, row1), engine.value, p)).samples
        c = run_diff(checked_result(map(sub, row0, row1), engine.value, p)).samples
        return zip(bins, [*map(add, a, c), *map(sub, a, c)])

    return split


def rader_dft(plan: DftPlan, data, engine: ConvolutionEngine = ConvolutionEngine.DIRECT) -> Signal:
    """DFT of prime length p through one (p-1)-point cyclic convolution.

    X[0] is the plain sample sum; for k >= 1 the bins are x[0] plus the
    cyclic convolution of the permuted input with the twiddle kernel.
    At p = 3 (mod 4) that convolution nests as the Good-Thomas 2 x (p-1)/2
    (see ``_rader_runner``), so at p = 499 direct makes 124,002 products,
    not 248,004.
    Any engine works at every prime, p = 2 through one length-1 product.
    Fast-prime and two-factor nest over the prime-power parts of the
    length they run (249 = 3 * 83 at p = 499), and a part that is a
    composite prime power (4 in 12 = 3 * 4, at p = 13) runs as one block.
    The engine's prepared twiddle kernels are built once per (p, engine)
    per process and kept, unbounded like ``dft_plan``, at O(p) per entry.
    An overflow from finite samples raises the engine's overflow error.
    """
    x = as_signal(data)
    p = plan.length
    if len(x) != p:
        raise ValueError(f"plan length {p} does not match data length {len(x)}")
    xs = x.samples
    out = [complex(reduce(add, xs, 0))] * p  # X[0]; the scatter fills bins 1 .. p-1
    first = xs[0]
    for bin_index, value in _rader_runner(plan, engine)(xs):
        out[bin_index] = first + value
    return checked_result(out, engine.value, p)


@lru_cache(maxsize=None, typed=True)
def padded_length(n: int, engine: ConvolutionEngine = ConvolutionEngine.DIRECT) -> int:
    """Cyclic length at which ``engine`` embeds a length-n linear convolution.

    Any L >= 2n - 1 holds the full product without wrap-around.  This is the
    first L in 2n - 1 .. 4n - 2 with the smallest ``engine.predicted_counts(L)``,
    multiplications then additions.  The window holds 2n and, by Bertrand's
    postulate, the smallest prime >= 2n - 1, so L never costs more than
    either.  Direct, at n^2 mults, always takes 2n - 1; fast-prime and
    two-factor nest over coprime factors and take smooth lengths: for
    n = 250 both take 510, where fast-prime tallies 12,056 mults against
    124,252 at the prime 499.
    Kept per (n, engine) per process, as ``dft_plan`` is.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    return min(range(2 * n - 1, 4 * n - 1), key=engine.predicted_counts)


def schoolbook_linear_convolution(kernel, data) -> Signal:
    """Quadratic linear convolution oracle: the full 2n - 1 product."""
    b = as_signal(kernel).samples
    z = as_signal(data).samples
    n = len(b)
    if len(z) != n:
        raise ValueError(f"kernel length {n} does not match data length {len(z)}")
    out = []
    for k in range(2 * n - 1):
        acc = 0  # an int start keeps Fraction input exact
        for l in range(max(0, k - n + 1), min(k, n - 1) + 1):
            acc += b[l] * z[k - l]
        out.append(acc)
    return Signal(out)


def linear_convolution(kernel, data, engine: ConvolutionEngine = ConvolutionEngine.DIRECT) -> Signal:
    """Linear convolution via zero-padded cyclic convolution.

    Both inputs are zero padded to ``padded_length(n, engine)``, the
    engine's cheapest length that holds the full product, convolved
    cyclically, and truncated to the full 2n - 1 product.  Each input pads
    with abs(its first sample) * 0: 0.0 for float and complex input, which
    keeps CPython's float-only fast paths, and Fraction(0) for Fraction
    input, which stays exact through direct and fast-prime.  Int zeros
    would not do for either: nesting can gather padding into lanes of
    nothing else, where 0 / q is a float.
    """
    b = as_signal(kernel)
    z = as_signal(data)
    n = len(b)
    if len(z) != n:
        raise ValueError(f"kernel length {n} does not match data length {len(z)}")
    pad = padded_length(n, engine) - n
    b, z = (Signal(s.samples + (abs(s[0]) * 0,) * pad) for s in (b, z))
    return Signal(cyclic_convolution(b, z, engine).samples[:2 * n - 1])
