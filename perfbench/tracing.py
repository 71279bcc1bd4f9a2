"""Span recording and physical-operation counting for the traced run.

Spans are recorded from outside the library: ``Tracer.install`` replaces
module-level names such as ``primeconv.polycrt.poly_mul`` with timing
wrappers, and ``Tracer.uninstall`` puts the originals back.  Because the
library calls its own functions through those module globals, every call
made along a user path passes through a wrapper.  Nothing under ``src/`` is
edited.  The per-operation ``counted_*`` helpers are never wrapped; counts
come from ``OpTally`` and from the counting scalar types below.
"""

import functools
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  Several attributes can feed one span:
# the library imports a function into more than one module namespace.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "dft_plan", "transforms.dft_plan"),
    ("cli", "rader_dft", "transforms.rader"),
    ("transforms", "dft_plan", "transforms.dft_plan"),
    ("transforms", "rader_dft", "transforms.rader"),
    ("cli", "cyclic_convolution", "transforms.dispatch"),
    ("transforms", "cyclic_convolution", "transforms.dispatch"),
    ("transforms", "direct_cyclic_convolution", "core.direct"),
    ("transforms", "fast_cyclic_convolution", "fast.engine"),
    ("transforms", "plan_create", "fast.plan_create"),
    ("transforms", "winograd_two_factor_convolution", "polycrt.engine"),
    ("core", "as_signal", "core.signal"),
    ("fast", "as_signal", "core.signal"),
    ("polycrt", "as_signal", "core.signal"),
    ("transforms", "as_signal", "core.signal"),
    ("fast", "reverse_permute", "fast.align"),
    ("polycrt", "two_factor_system", "polycrt.system"),
    ("polycrt", "poly_mul", "polycrt.poly_mul"),
    ("polycrt", "crt_reconstruct", "polycrt.crt_reconstruct"),
)


@dataclass
class OpCounter:
    """Physical scalar operations on data-derived values."""

    mults: int = 0
    adds: int = 0

    def snapshot(self) -> tuple:
        return (self.mults, self.adds)


def counting_types(counter: OpCounter):
    """Return (float, complex) subclasses whose arithmetic charges ``counter``.

    Every ``+ - * /`` with at least one counting operand is charged: ``+``
    and ``-`` as one add, ``*`` and ``/`` as one mult.  Results stay
    counting values, so counts follow the data through the whole call.
    Negation is free and ``abs`` returns a plain float, as in the package's
    own counting model.  The arithmetic itself is the plain float/complex
    operation, so outputs are bit-identical to an uncounted run.  A plain
    ``complex`` times a counting *float* is not seen (``complex.__mul__``
    accepts float subclasses), so complex data is fed as counting complex
    values.
    """

    def lift(value):
        if isinstance(value, complex):
            return CountedComplex(value)
        if isinstance(value, float):
            return CountedFloat(value)
        return value

    def plain(value):
        if isinstance(value, CountedComplex):
            return complex(value)
        if isinstance(value, CountedFloat):
            return float(value)
        return value

    def binary(op, kind):
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

    class Counted:
        __slots__ = ()
        __add__, __radd__ = binary(lambda a, b: a + b, "adds")
        __sub__, __rsub__ = binary(lambda a, b: a - b, "adds")
        __mul__, __rmul__ = binary(lambda a, b: a * b, "mults")
        __truediv__, __rtruediv__ = binary(lambda a, b: a / b, "mults")

        def __neg__(self):
            return lift(-plain(self))

        def __pos__(self):
            return self

    class CountedFloat(Counted, float):
        __slots__ = ()

    class CountedComplex(Counted, complex):
        __slots__ = ()

    return CountedFloat, CountedComplex


@dataclass
class SpanStats:
    """One span name's totals within one request."""

    incl_ns: int = 0
    self_ns: int = 0
    calls: int = 0
    self_mults: int = 0
    self_adds: int = 0


@dataclass
class _Open:
    name: str
    start_ns: int
    ops: tuple
    child_ns: int = 0
    child_mults: int = 0
    child_adds: int = 0


@dataclass
class Tracer:
    """Records spans at the wrapped layer boundaries of one request at a time.

    Spans of one request share its identifier; each raw span records its
    parent, so self time is the span's duration minus its children's.
    Operation counts from ``counter`` are snapshotted at every boundary, so
    each span also gets its own (self) physical counts.
    """

    modules: dict
    counter: OpCounter = field(default_factory=OpCounter)
    keep_raw_requests: int = 6
    absent: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    _originals: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _stats: dict = field(default_factory=dict)
    _request: object = None
    _raw_requests: int = 0

    def __post_init__(self):
        missing = {}
        for module_name, attr, span in SPAN_TARGETS:
            if not hasattr(self.modules[module_name], attr):
                missing.setdefault(span, []).append(f"primeconv.{module_name}.{attr}")
        self.missing = [name for names in missing.values() for name in names]
        present = {span for module_name, attr, span in SPAN_TARGETS
                   if hasattr(self.modules[module_name], attr)}
        self.absent = {
            span: "wrapped name no longer exists: " + ", ".join(names)
            for span, names in missing.items() if span not in present
        }

    def install(self) -> None:
        for module_name, attr, span in SPAN_TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def begin(self, request_id) -> None:
        self._request = request_id
        self._stats = {}
        self._stack = []

    def end(self) -> dict:
        if self._raw_requests < self.keep_raw_requests:
            self._raw_requests += 1
        stats, self._stats = self._stats, {}
        return stats

    def _wrap(self, fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _enter(self, span) -> None:
        self._stack.append(_Open(span, time.perf_counter_ns(), self.counter.snapshot()))

    def _exit(self) -> None:
        end_ns = time.perf_counter_ns()
        mults, adds = self.counter.snapshot()
        top = self._stack.pop()
        duration = end_ns - top.start_ns
        span_mults = mults - top.ops[0]
        span_adds = adds - top.ops[1]
        stats = self._stats.get(top.name)
        if stats is None:
            stats = self._stats[top.name] = SpanStats()
        stats.incl_ns += duration
        stats.self_ns += duration - top.child_ns
        stats.calls += 1
        stats.self_mults += span_mults - top.child_mults
        stats.self_adds += span_adds - top.child_adds
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += duration
            parent.child_mults += span_mults
            parent.child_adds += span_adds
        if self._raw_requests < self.keep_raw_requests:
            parent_name = self._stack[-1].name if self._stack else None
            self.raw.append({
                "request": self._request, "span": top.name, "parent": parent_name,
                "start_ns": top.start_ns, "end_ns": end_ns,
                "mults": span_mults, "adds": span_adds,
            })
