"""primeconv benchmark: per-engine call latency on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
Workloads (see README.md for why each exists):

    conv-prime-large          cyclic_convolution at n=499, plain mode
    conv-prime-small-counted  one sweep over the primes 3..31, counted mode
    dft-cli                   primeconv.cli.main(["dft", ...]) at p=499

One closed-loop caller in one thread sends one request at a time.  A round
gives every engine one request on the same inputs, in a fixed order, so
drift hits all three engines equally.  Inputs come from ``--seed`` alone.
Every output is checked after its round, outside the timed region.
Request times are normalised against a calibration loop run beside each
request, to cancel the speed swings of a shared host (see CAL_REF_NS).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it alternates untraced and traced rounds, records spans
by wrapping module-level names (see tracing.py), then makes one counting
pass whose inputs count their own arithmetic.  ``--inject-fault`` perturbs
every fast-prime result, to prove that the correctness gate can fail.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when no
request failed, 1 when one did, and 2 on a usage error or when the
package source is missing.
"""

import argparse
import importlib
import json
import math
import operator
import random
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, counting_types

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Engine value (as the CLI spells it) -> metric key.
ENGINES = {"direct": "direct", "fast-prime": "fast_prime", "winograd-two-factor": "two_factor"}

# Set-up is repeated and its median reported, so one slow import or
# page-in does not decide the figure.
SETUP_REPEATS = 5

EPS = 2.0 ** -52

# Machine-speed normalisation.  On a shared host the same Python work takes
# from 1x to 1.7x as long from one few-second stretch to the next.  Every
# request is therefore bracketed by a fixed pure-Python calibration loop,
# and its time is reported at a reference speed: wall time scaled by
# CAL_REF_NS / (mean of the two neighbouring calibrations).  The raw
# wall-clock medians are printed beside the normalised ones.
CAL_REF_NS = 300_000
CAL_VALUES = tuple(i * 0.001 for i in range(48))


def _cal_mul(a, b):
    return a * b


def _cal_add(a, b):
    return a + b


def calibration_ns() -> int:
    """Fastest of three runs of a fixed loop shaped like the engines' inner
    loops: one Python call per scalar operation, one list per row."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        acc = 0.0
        for x in CAL_VALUES:
            row = []
            for y in CAL_VALUES:
                acc = _cal_add(acc, _cal_mul(x, y))
                row.append(acc)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def tolerance(n: int) -> float:
    """Accepted max_relative_error at length n: 8·n·ε (≈8.9e-13 at n=499)."""
    return 8 * n * EPS


def substream(seed: int, index: int) -> random.Random:
    """Stream 0 is the fixed kernel, 1 the counting pass (round -2), 2 the
    warm-up (round -1), and i + 3 round i."""
    return random.Random(((seed & 0xFFFFFFFFFFFFFFFF) << 32) + index)


def real_vector(rng: random.Random, n: int) -> list:
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def complex_vector(rng: random.Random, n: int) -> list:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]


def rel_err(got, want) -> float:
    """max_k |got[k] - want[k]| / max(1, max_k |want[k]|)."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return math.inf
    scale = max(1.0, max(abs(w) for w in want))
    return max(abs(g - w) for g, w in zip(got, want)) / scale


def reference_cyclic(kernel, data) -> list:
    """Real cyclic convolution with correctly rounded sums (math.fsum).

    Independent of the package: it checks the direct engine, which is the
    oracle for the other two.
    """
    n = len(kernel)
    rev = data[::-1] * 2  # rev[n-1-p+l] == data[(p-l) % n]
    return [math.fsum(map(operator.mul, kernel, rev[n - 1 - p:2 * n - 1 - p])) for p in range(n)]


def import_fresh() -> SimpleNamespace:
    """Import primeconv from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "primeconv" or m.startswith("primeconv.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("primeconv.cli")
    mods = {name: importlib.import_module(f"primeconv.{name}")
            for name in ("core", "counting", "fast", "polycrt", "transforms")}
    mods["cli"] = cli
    engine_type = mods["transforms"].ConvolutionEngine
    return SimpleNamespace(mods=mods, engines={e: engine_type.from_name(e) for e in ENGINES}, **mods)


def predicted(lib, engine: str, n: int) -> tuple:
    """The library's own closed-form (mults, adds) for one engine."""
    if engine == "direct":
        return lib.core.direct_predicted_counts(n)
    if engine == "fast-prime":
        return lib.fast.predicted_counts(n)
    return lib.polycrt.two_factor_predicted_counts(n)


class ConvWorkload:
    """Requests are cyclic_convolution calls over ``sizes`` (one per size)."""

    sizes: tuple = ()
    counted: bool = False

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        for engine in ENGINES:  # warm-up: builds plans and residue systems
            self.call(engine, self.inputs(-1))

    def describe(self) -> str:
        mode = "counted" if self.counted else "plain"
        return f"n={','.join(map(str, self.sizes))}, real data, {mode} mode"

    def call(self, engine: str, inputs):
        lib = self.lib
        engine_id = lib.engines[engine]
        results = []
        for kernel, data in inputs:
            tally = lib.counting.OpTally() if self.counted else None
            out = lib.transforms.cyclic_convolution(kernel, data, engine_id, tally)
            results.append((out, tally))
        return results

    def check(self, inputs, results):
        """Return ({engine: (error, failure reason or None)}, oracle ns or None)."""
        refs = [reference_cyclic(kernel, data) for kernel, data in inputs]
        verdicts = {"direct": self._compare("direct", results["direct"], refs)}
        oracle = refs
        if verdicts["direct"][1] is None:
            oracle = [out for out, _ in results["direct"]]
        for engine in ENGINES:
            if engine != "direct":
                verdicts[engine] = self._compare(engine, results[engine], oracle)
        return verdicts, None

    def _compare(self, engine, result, oracle):
        if isinstance(result, Exception):
            return math.nan, f"raised {result!r}"
        try:
            return self._compare_outputs(engine, result, oracle)
        except (TypeError, ValueError) as exc:
            return math.nan, f"malformed output: {exc!r}"

    def _compare_outputs(self, engine, result, oracle):
        worst = 0.0
        for (out, tally), want in zip(result, oracle):
            n = len(want)
            err = rel_err(out, want)
            worst = max(worst, err)
            if not err <= tolerance(n):
                return err, f"n={n}: max_relative_error {err:.3e} > {tolerance(n):.3e}"
            if tally is not None and tally.counts != predicted(self.lib, engine, n):
                return err, (f"n={n}: tally {tally.counts} != predicted "
                             f"{predicted(self.lib, engine, n)}")
        return worst, None

    def count(self, engine, inputs, counter, counted_float, counted_complex):
        """One request on counting inputs: rows of (n, physical, tallied, ok)."""
        lib = self.lib
        rows = []
        for kernel, data in inputs:
            n = len(kernel)
            tally = lib.counting.OpTally()
            before = counter.snapshot()
            out = lib.transforms.cyclic_convolution(
                kernel, [counted_float(v) for v in data], lib.engines[engine], tally)
            after = counter.snapshot()
            physical = (after[0] - before[0], after[1] - before[1])
            ok = (rel_err([float(v) for v in out], reference_cyclic(kernel, data)) <= tolerance(n)
                  and tally.counts == predicted(lib, engine, n))
            rows.append((n, physical, tally.counts, ok))
        return rows


class ConvPrimeLarge(ConvWorkload):
    sizes = (499,)

    def __init__(self, lib, seed: int, workdir: Path):
        # One kernel for the whole run; fresh data on every round.
        self.kernel = real_vector(substream(seed, 0), self.sizes[0])
        super().__init__(lib, seed, workdir)

    def inputs(self, index: int) -> list:
        return [(self.kernel, real_vector(substream(self.seed, index + 3), self.sizes[0]))]


class ConvPrimeSmallCounted(ConvWorkload):
    sizes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    counted = True

    def inputs(self, index: int) -> list:
        # Fresh kernel and data for every call of the sweep.
        rng = substream(self.seed, index + 3)
        return [(real_vector(rng, n), real_vector(rng, n)) for n in self.sizes]


def write_samples(path: Path, samples) -> None:
    path.write_text("".join(f"{v.real!r} {v.imag!r}\n" for v in samples))


def read_samples(path: Path) -> list:
    """Parse "re im" lines, the format the CLI writes for complex output."""
    values = []
    for line in path.read_text().splitlines():
        re, im = line.split()
        values.append(complex(float(re), float(im)))
    return values


class DftCli:
    """Requests are in-process ``primeconv dft`` runs on a complex file."""

    p = 499

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.in_path = workdir / "in.txt"
        warm = self.inputs(-1)
        for engine in ENGINES:
            self.call(engine, warm)

    def describe(self) -> str:
        return f"p={self.p}, complex samples, file in and out"

    def out_path(self, engine: str) -> Path:
        return self.workdir / f"out-{engine}.txt"

    def inputs(self, index: int) -> list:
        samples = complex_vector(substream(self.seed, index + 3), self.p)
        write_samples(self.in_path, samples)
        for engine in ENGINES:
            self.out_path(engine).unlink(missing_ok=True)
        return samples

    def call(self, engine: str, inputs):
        return self.lib.cli.main(["dft", str(self.in_path), "--engine", engine,
                                  "--out", str(self.out_path(engine))])

    def check(self, inputs, results):
        """Return ({engine: (error, failure reason or None)}, naive_dft ns)."""
        start = time.perf_counter_ns()
        want = list(self.lib.transforms.naive_dft(read_samples(self.in_path)))
        naive_ns = time.perf_counter_ns() - start
        verdicts = {}
        for engine, code in results.items():
            if isinstance(code, Exception):
                verdicts[engine] = (math.nan, f"raised {code!r}")
            elif code != 0:
                verdicts[engine] = (math.nan, f"exit code {code}")
            else:
                try:
                    got = read_samples(self.out_path(engine))
                except (OSError, ValueError) as exc:
                    verdicts[engine] = (math.nan, f"unreadable output: {exc!r}")
                    continue
                err = rel_err(got, want)
                reason = None if err <= tolerance(self.p) else (
                    f"max_relative_error {err:.3e} > {tolerance(self.p):.3e}")
                verdicts[engine] = (err, reason)
        return verdicts, naive_ns

    def count(self, engine, inputs, counter, counted_float, counted_complex):
        """Physical counts of the whole Rader call; tallies of its convolution."""
        lib = self.lib
        engine_id = lib.engines[engine]
        plan = lib.transforms.dft_plan(self.p)
        before = counter.snapshot()
        out = lib.transforms.rader_dft(plan, [counted_complex(v) for v in inputs], engine_id)
        after = counter.snapshot()
        physical = (after[0] - before[0], after[1] - before[1])
        tally = lib.counting.OpTally()
        permuted = [inputs[i] for i in plan.input_order]
        with warnings.catch_warnings():  # p - 1 is composite, as rader_dft expects
            warnings.simplefilter("ignore", lib.fast.CompositeLengthWarning)
            lib.transforms.cyclic_convolution(plan.kernel, permuted, engine_id, tally)
        ok = (rel_err([complex(v) for v in out], lib.transforms.naive_dft(inputs))
              <= tolerance(self.p)
              and tally.counts == predicted(lib, engine, self.p - 1))
        return [(self.p, physical, tally.counts, ok)]


WORKLOADS = {
    "conv-prime-large": ConvPrimeLarge,
    "conv-prime-small-counted": ConvPrimeSmallCounted,
    "dft-cli": DftCli,
}


def inject_fault(lib) -> None:
    """Perturb every fast-prime result by 1e-6 in its first sample."""
    transforms = lib.transforms
    original = transforms.fast_cyclic_convolution

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        samples = list(out)
        samples[0] += 1e-6
        return lib.core.Signal(samples)

    transforms.fast_cyclic_convolution = perturbed


class Run:
    """Per-run accumulators: request times, failures, errors, traces."""

    def __init__(self):
        self.times = {engine: [] for engine in ENGINES}  # normalised ns
        self.wall_times = {engine: [] for engine in ENGINES}  # raw ns
        self.traced_times = {engine: [] for engine in ENGINES}  # normalised ns
        self.naive_ns = []  # normalised
        self.records = []  # (engine, {span: SpanStats}, scale) per traced request
        self.errors = {engine: [] for engine in ENGINES}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rounds = 0

    def record_verdicts(self, round_index, verdicts) -> None:
        for engine, (err, reason) in verdicts.items():
            self.attempted += 1
            if math.isfinite(err):
                self.errors[engine].append(err)
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"round {round_index} {engine}: {reason}")


def measure(wl, seconds: float, run: Run, tracer=None) -> None:
    """Closed loop for ``seconds`` of wall time; whole rounds only.

    With a tracer, even rounds run untraced and odd rounds traced, so the
    two sides see the same drift and their ratio is the tracing overhead.
    """
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        inputs = wl.inputs(index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        results = {}
        cal_before = calibration_ns()
        for engine in ENGINES:
            if traced:
                tracer.begin((index, engine))
            t0 = time.perf_counter_ns()
            try:
                results[engine] = wl.call(engine, inputs)
            except Exception as exc:  # a raising request is a failed request
                results[engine] = exc
            elapsed = time.perf_counter_ns() - t0
            if traced:
                stats = tracer.end()
            cal_after = calibration_ns()
            scale = 2 * CAL_REF_NS / (cal_before + cal_after)
            cal_before = cal_after
            if traced:
                run.records.append((engine, stats, scale))
                run.traced_times[engine].append(elapsed * scale)
            else:
                run.times[engine].append(elapsed * scale)
                run.wall_times[engine].append(elapsed)
        if traced:
            tracer.uninstall()
        verdicts, oracle_ns = wl.check(inputs, results)
        if oracle_ns is not None:
            run.naive_ns.append(oracle_ns * scale)
        run.record_verdicts(index, verdicts)
        index += 1
    run.rounds = index


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: Run, setup_s: float) -> dict:
    metrics = {}
    for engine, key in ENGINES.items():
        ms = [t / 1e6 for t in run.times[engine]]
        metrics[f"{key}_ms.p50"] = (statistics.median(ms), "ms")
        metrics[f"{key}_ms.p90"] = (p90(ms), "ms")
    total_ns = sum(sum(ts) for ts in run.times.values())
    requests = sum(len(ts) for ts in run.times.values())
    metrics["throughput_rps"] = (requests / (total_ns / 1e9), "1/s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


# Per-layer span metrics: (metric, span, statistic).  "incl" is the span's
# whole duration, "self" its duration minus the wrapped calls inside it.
SPAN_METRICS = (
    ("core.direct.ms", "core.direct", "incl_ns"),
    ("core.signal.ms", "core.signal", "incl_ns"),
    ("fast.plan_create.ms", "fast.plan_create", "incl_ns"),
    ("fast.plan_create.calls", "fast.plan_create", "calls"),
    ("fast.engine.ms", "fast.engine", "self_ns"),
    ("fast.align.ms", "fast.align", "incl_ns"),
    ("polycrt.engine.ms", "polycrt.engine", "self_ns"),
    ("polycrt.poly_mul.ms", "polycrt.poly_mul", "incl_ns"),
    ("polycrt.crt_reconstruct.ms", "polycrt.crt_reconstruct", "incl_ns"),
    ("polycrt.system.ms", "polycrt.system", "incl_ns"),
    ("transforms.dispatch.ms", "transforms.dispatch", "self_ns"),
    ("transforms.dft_plan.ms", "transforms.dft_plan", "incl_ns"),
    ("transforms.rader.ms", "transforms.rader", "self_ns"),
    ("cli.main.ms", "cli.main", "incl_ns"),
    ("cli.self_ms", "cli.main", "self_ns"),
)

# Spans whose own (self) physical counts are reported.
COUNTED_SPANS = ("core.direct", "fast.engine", "polycrt.engine", "polycrt.poly_mul",
                 "polycrt.crt_reconstruct", "transforms.rader")


def worst_error(run: Run):
    """Worst finite max_relative_error against the oracle, or None."""
    return max((max(errs) for errs in run.errors.values() if errs), default=None)


def per_layer(run: Run, tracer: Tracer, counting: dict, count_stats: list,
              cache_lookups: tuple) -> tuple:
    """Return (metrics, absent reasons) for the traced run."""
    metrics, absent = {}, {}

    def per_request(span, stat, records):
        if span in tracer.absent:
            return None, tracer.absent[span]
        values = [getattr(stats[span], stat) * (scale if stat.endswith("_ns") else 1)
                  for _, stats, scale in records if span in stats]
        if not values:
            return None, "not reached on this workload"
        return statistics.median(values), None

    for name, span, stat in SPAN_METRICS:
        value, reason = per_request(span, stat, run.records)
        unit = "count" if stat == "calls" else "ms"
        if value is not None and unit == "ms":
            value /= 1e6
        metrics[name] = (value, unit)
        if reason:
            absent[name] = reason

    for span in COUNTED_SPANS:
        for kind in ("mults", "adds"):
            name = f"{span}.physical_{kind}"
            value, reason = per_request(span, f"self_{kind}", count_stats)
            metrics[name] = (value, "count")
            if reason:
                absent[name] = reason

    hits, lookups = cache_lookups
    metrics["polycrt.system.hit_ratio"] = (hits / lookups if lookups else None, "ratio")
    if not lookups:
        absent["polycrt.system.hit_ratio"] = ("two_factor_system has no cache_info"
                                              if lookups is None else "no lookups on this workload")

    metrics["check.max_rel_err"] = (worst_error(run), "ratio")
    if metrics["check.max_rel_err"][0] is None:
        absent["check.max_rel_err"] = "no request produced a comparable output"

    naive = run.naive_ns
    metrics["transforms.naive_dft.ms"] = (statistics.median(naive) / 1e6 if naive else None, "ms")
    if not naive:
        absent["transforms.naive_dft.ms"] = "no DFT on this workload"

    for engine, key in ENGINES.items():
        traced = run.traced_times[engine]
        overhead = statistics.median(traced) / statistics.median(run.times[engine]) if traced else None
        metrics[f"trace.overhead_ratio.{key}"] = (overhead, "ratio")
        if not traced:
            absent[f"trace.overhead_ratio.{key}"] = "no traced round completed"

        rader = [stats["transforms.rader"].incl_ns * scale for e, stats, scale in run.records
                 if e == engine and "transforms.rader" in stats]
        name = f"transforms.rader_over_naive.{key}"
        metrics[name] = (statistics.median(rader) / statistics.median(naive)
                         if rader and naive else None, "ratio")
        if metrics[name][0] is None:
            absent[name] = "no Rader DFT on this workload"

        physical, tallied = counting[engine]
        total = sum(physical)
        metrics[f"counting.tally_mults.{key}"] = (tallied[0], "count")
        metrics[f"counting.tally_adds.{key}"] = (tallied[1], "count")
        metrics[f"counting.physical_mults.{key}"] = (physical[0], "count")
        metrics[f"counting.physical_adds.{key}"] = (physical[1], "count")
        metrics[f"counting.untallied_ratio.{key}"] = (
            (total - sum(tallied)) / total if total else None, "ratio")
    return metrics, absent


def counting_pass(wl, tracer: Tracer, run: Run):
    """One request per engine on inputs that count their own arithmetic."""
    counted_float, counted_complex = counting_types(tracer.counter)
    inputs = wl.inputs(-2)
    per_engine, rows, span_stats = {}, [], []
    tracer.install()
    try:
        for engine in ENGINES:
            tracer.begin(("count", engine))
            try:
                engine_rows = wl.count(engine, inputs, tracer.counter, counted_float, counted_complex)
                reason = None if all(ok for *_, ok in engine_rows) else "wrong output or tally"
            except Exception as exc:
                engine_rows, reason = [], f"raised {exc!r}"
            span_stats.append((engine, tracer.end(), 1.0))
            run.record_verdicts(-1, {engine: (math.nan, reason)})
            physical = tuple(sum(r[1][k] for r in engine_rows) for k in (0, 1))
            tallied = tuple(sum(r[2][k] for r in engine_rows) for k in (0, 1))
            per_engine[engine] = (physical, tallied)
            rows += [(engine, *r) for r in engine_rows]
    finally:
        tracer.uninstall()
    return per_engine, rows, span_stats


def gap_lines(rows) -> list:
    """State the physical-versus-tallied gap of every engine and length."""
    lines = []
    for engine, n, physical, tallied, ok in rows:
        lines.append(
            f"  {engine:<20} n={n:<4} physical mults {physical[0]:>7} adds {physical[1]:>7} | "
            f"tallied mults {tallied[0]:>7} adds {tallied[1]:>7} | "
            f"untallied mults {physical[0] - tallied[0]:>6} adds {physical[1] - tallied[1]:>6}"
            + ("" if ok else "  CHECK FAILED"))
    largest = {engine: (n, physical, tallied) for engine, n, physical, tallied, _ in rows}
    if "fast-prime" in largest:
        n, physical, tallied = largest["fast-prime"]
        lines.append(f"gap fast-prime n={n}: {physical[1] - tallied[1]} physical adds untallied "
                     "(on the conv workloads n-1: the zero-sum reconstruction of the last "
                     "correction, n-2 adds, plus sum()'s 0 start; dft-cli adds Rader's own "
                     "untallied sum and scatter)")
    if "winograd-two-factor" in largest:
        n, physical, tallied = largest["winograd-two-factor"]
        lines.append(f"gap two-factor n={n}: {physical[0]} physical mults against {tallied[0]} "
                     "tallied (the CRT recombination, r*weight then poly_mod, is untallied; "
                     "see polycrt.crt_reconstruct.physical_mults)")
    return lines


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb fast-prime results to prove the gate can fail")
    args = parser.parse_args(argv)
    if not (SRC / "primeconv" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run_benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmark(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload]
    setups = []  # (wall s, normalised s)
    for _ in range(SETUP_REPEATS):
        cal_before = calibration_ns()
        start = time.perf_counter()
        lib = import_fresh()
        wl = workload(lib, args.seed, workdir)
        elapsed = time.perf_counter() - start
        setups.append((elapsed, elapsed * 2 * CAL_REF_NS / (cal_before + calibration_ns())))
    setup_s = statistics.median(normalised for _, normalised in setups)
    if args.inject_fault:
        inject_fault(lib)

    run = Run()
    print(f"workload {args.workload} ({wl.describe()}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, one closed-loop caller")
    if args.trace:
        tracer = Tracer(lib.mods)
        system = lib.polycrt.two_factor_system
        info = getattr(system, "cache_info", None)
        before = info() if info else None
        measure(wl, args.seconds, run, tracer)
        after = info() if info else None
        cache = (None, None) if info is None else (
            after.hits - before.hits, after.hits + after.misses - before.hits - before.misses)
        counting, rows, count_stats = counting_pass(wl, tracer, run)
        metrics, absent = per_layer(run, tracer, counting, count_stats, cache)
        report_traced(metrics, absent, rows, run, tracer, counting)
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"spans": tracer.raw, "absent": absent,
                                    "metrics": {k: v[0] for k, v in metrics.items()}}, indent=1))
        print(f"spans of the first traced requests written to {dump.relative_to(ROOT)}")
    else:
        measure(wl, args.seconds, run)
        metrics = end_to_end(run, setup_s)
        report_untraced(metrics, run, setups)

    for line in run.failures:
        print(f"FAILED {line}")
    out = {k: {"value": 0 if v is None else v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0 if run.failed == 0 else 1


def report_untraced(metrics, run: Run, setups) -> None:
    print(f"rounds {run.rounds}; each round runs every engine once on the same inputs")
    print(f"times are normalised to a calibration loop time of {CAL_REF_NS / 1e3:g} us")
    for engine, key in ENGINES.items():
        wall = statistics.median(run.wall_times[engine]) / 1e6
        for q in ("p50", "p90"):
            value, unit = metrics[f"{key}_ms.{q}"]
            note = f", wall-clock p50 {wall:.4f} ms" if q == "p50" else ""
            print(f"  {key + '_ms.' + q:<20} {value:12.4f} {unit:<5} "
                  f"(samples {len(run.times[engine])}{note})")
    for name in ("throughput_rps", "setup_s", "peak_rss_mb"):
        value, unit = metrics[name]
        print(f"  {name:<20} {value:12.6g} {unit}")
    print(f"  setup_s is the median of {len(setups)} set-ups, wall-clock s: "
          + ", ".join(f"{wall:.4f}" for wall, _ in setups))
    print(f"  {'max_rel_err':<20} {fmt(worst_error(run)):>12} ratio (worst over all requests; "
          "not gated, see README)")
    ratio = run.failed / run.attempted
    print(f"  {'failed_ratio':<20} {ratio:12.6g} ratio ({run.failed} failed / {run.attempted} "
          "attempted; carried by the result's 'failed' and 'attempted' fields)")


def report_traced(metrics, absent, rows, run: Run, tracer: Tracer, counting) -> None:
    traced = sum(len(t) for t in run.traced_times.values())
    untraced = sum(len(t) for t in run.times.values())
    print(f"rounds {run.rounds}: {traced} traced and {untraced} untraced requests, interleaved")
    for name, (value, unit) in metrics.items():
        note = f"  ({absent[name]})" if name in absent else ""
        print(f"  {name:<40} {fmt(value):>14} {unit}{note}")
    if tracer.missing:
        print("wrapped names missing: " + ", ".join(tracer.missing))
    print("tracing overhead (traced p50 / untraced p50): " + ", ".join(
        f"{key} {fmt(metrics[f'trace.overhead_ratio.{key}'][0])}" for key in ENGINES.values()))
    print("physical vs tallied operations (counting pass, one request per engine):")
    for line in gap_lines(rows):
        print(line)
    for engine, key in ENGINES.items():
        physical, tallied = counting[engine]
        print(f"  {key}: untallied_ratio {fmt(metrics[f'counting.untallied_ratio.{key}'][0])}"
              f" of {sum(physical)} physical ops (mults + adds)")


if __name__ == "__main__":
    sys.exit(main())
