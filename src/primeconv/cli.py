"""primeconv command line tool.

Subcommands:
    table     operation-count table across sizes and engines
    verify    run the cross-checking suites; exit 1 when any fails
    bench     wall-clock and count-ratio report
    convolve  cyclic (or linear) convolution of two sample files
    dft       prime-length DFT of a sample file

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.

File format for convolve/dft: one sample per line, real values as a single
number, complex values as "re im".  Blank lines and lines starting with
``#`` are skipped.  Reports are deterministic for a fixed seed, except
bench's wall-clock columns.
"""

import argparse
import cmath
import sys
import time
from functools import lru_cache
from itertools import product

from .core import Signal, direct_cyclic_convolution, max_relative_error
from .counting import OpTally
from .fast import multiplication_lower_bound
from .transforms import (
    ConvolutionEngine,
    cyclic_convolution,
    dft_plan,
    linear_convolution,
    rader_dft,
)

# verification and the csv and json report formats are imported where they
# are used, so a one-shot convolve or dft process never loads them.

# Best published counts for short prime lengths, quoted from the reference
# comparison table as-is.  Reference data, not measured by this tool.
BEST_PUBLISHED_COUNTS = {3: (4, 11), 5: (8, 62), 7: (16, 70)}

# The same reference table prints these direct-method counts at length 17,
# which disagree with the n^2 / n(n-1) formulas; the tool reports formula
# values and annotates the row.
TABLE_MISPRINTS = {(ConvolutionEngine.DIRECT, 17): (189, 172)}

DEFAULT_SEED = 42


class CliError(Exception):
    """Raised for usage and parse errors; mapped to exit code 2."""


class CountModelError(Exception):
    """A counted run off its count model: a verification failure, exit code 1."""


def _parse_sizes(text: str) -> tuple:
    sizes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part[1:]:
                lo_text, hi_text = part.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise CliError(f"empty size range {part!r}")
                sizes.extend(range(lo, hi + 1))
            else:
                sizes.append(int(part))
        except ValueError:
            raise CliError(f"could not parse size {part!r}") from None
    if not sizes:
        raise CliError("no sizes given")
    for n in sizes:
        if n < 1:
            raise CliError(f"sizes must be positive, got {n}")
    return tuple(dict.fromkeys(sizes))


def _engines(args) -> list:
    names = args.engine or [engine.value for engine in ConvolutionEngine]
    return [ConvolutionEngine.from_name(name) for name in names]


def _load_signal(path: str) -> Signal:
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    samples = []
    any_complex = False
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":  # a blank line or a comment
            continue
        try:
            if len(fields) == 1:
                samples.append(float(fields[0]))
            elif len(fields) == 2:
                samples.append(complex(float(fields[0]), float(fields[1])))
                any_complex = True
            else:
                raise CliError(f"{path}:{lineno}: expected 1 or 2 numeric fields, got {len(fields)}")
        except ValueError:
            raise CliError(f"{path}:{lineno}: could not parse {raw.strip()!r}") from None
    if not samples:
        raise CliError(f"{path}: no samples found")
    if any_complex:
        samples = [complex(value) for value in samples]
    try:
        return Signal(samples)
    except ValueError as exc:
        # Signal names the first non-finite sample; only a file that fails
        # walks its lines again, to say on which line that sample is.
        bad = next(i for i, value in enumerate(samples) if not cmath.isfinite(value))
        sample_lines = [lineno for lineno, raw in enumerate(lines, start=1)
                        if (fields := raw.split()) and fields[0][0] != "#"]
        raise CliError(f"{path}:{sample_lines[bad]}: {exc}") from None


def _render_samples(signal: Signal) -> str:
    if signal.is_complex:
        return "\n".join(f"{v.real!r} {v.imag!r}" for v in map(complex, signal.samples))
    return "\n".join(map(repr, signal.samples))


def _format_rows(rows, columns, fmt: str) -> str:
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, "") for col in columns])
        return buffer.getvalue().rstrip("\n")
    if fmt == "markdown":
        lines = ["| " + " | ".join(columns) + " |",
                 "| " + " | ".join("---" for _ in columns) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(str(row.get(col, "")) for col in columns) + " |")
        return "\n".join(lines)
    if fmt == "json":
        import json

        return json.dumps([{col: row.get(col, "") for col in columns} for row in rows], indent=2)
    raise CliError(f"unknown format {fmt!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise CliError(f"{out}: {exc.strerror or exc}") from None
    else:
        print(text)


def _cases(args):
    """Measure every (size, engine) row that ``table`` and ``bench`` report.

    Row i draws from ``substream(seed, i)``: the kernel, then ``--trials``
    data sets, so both reports see the same inputs for a given seed and row.
    One counted run on the first set must match the count model; then every
    set is timed, for bench.  Yields (n, engine, counts, kernel, datasets,
    outputs, times_ns), where counts are the measured (mults, adds), equal
    to the model's.
    """
    from .verification import real_vector, substream

    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    for row_index, (n, engine) in enumerate(product(_parse_sizes(args.sizes), _engines(args))):
        rng = substream(args.seed, row_index)
        kernel = real_vector(rng, n)
        datasets = [real_vector(rng, n) for _ in range(args.trials)]

        runner = engine.prepare(kernel)
        tally = OpTally()
        runner(datasets[0], tally)
        predicted = engine.predicted_counts(n)
        if tally.counts != predicted:
            raise CountModelError(
                f"count model out of sync for {engine.value} at n={n}: "
                f"measured {tally.counts}, predicted {predicted}"
            )

        outputs = []
        times_ns = []
        for data in datasets:
            start = time.perf_counter_ns()
            outputs.append(runner(data))
            times_ns.append(time.perf_counter_ns() - start)
        yield n, engine, tally.counts, kernel, datasets, outputs, times_ns


def cmd_table(args) -> int:
    rows = []
    for n, engine, counts, kernel, datasets, outputs, _ in _cases(args):
        worst = max(max_relative_error(got, direct_cyclic_convolution(kernel, data))
                    for got, data in zip(outputs, datasets))
        row = {
            "n": n,
            "engine": engine.value,
            "mults_measured": counts[0],
            "adds_measured": counts[1],
            "mults_predicted": counts[0],
            "adds_predicted": counts[1],
            "lower_bound": multiplication_lower_bound(n),
            "max_rel_err": f"{worst:.3e}",
        }
        if n in BEST_PUBLISHED_COUNTS:
            quoted = BEST_PUBLISHED_COUNTS[n]
            row["best_published_mults"] = quoted[0]
            row["best_published_adds"] = quoted[1]
        misprint = TABLE_MISPRINTS.get((engine, n))
        if misprint:
            row["note"] = (
                f"reference table prints M={misprint[0]} A={misprint[1]} here; "
                f"formula gives M={counts[0]} A={counts[1]}"
            )
        rows.append(row)

    columns = ["n", "engine", "mults_measured", "adds_measured", "mults_predicted",
               "adds_predicted", "lower_bound", "max_rel_err", "best_published_mults",
               "best_published_adds", "note"]
    _emit(_format_rows(rows, columns, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verification import run_suites

    results = run_suites(sizes=_parse_sizes(args.sizes), trials=args.trials, seed=args.seed)
    rows = [
        {
            "suite": r.name,
            "status": "PASS" if r.passed else "FAIL",
            "max_error": "-" if r.max_error is None else f"{r.max_error:.3e}",
            "detail": r.detail,
        }
        for r in results
    ]
    table = _format_rows(rows, ["suite", "status", "max_error", "detail"], args.format)
    passed = sum(1 for r in results if r.passed)
    ok = passed == len(results)
    _emit(table, args.out)
    print(f"result: {'PASS' if ok else 'FAIL'} ({passed}/{len(results)} suites)")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    if args.trials < 3:
        raise CliError(f"bench needs at least 3 trials, got {args.trials}")
    rows = []
    for n, engine, counts, _, _, _, times_ns in _cases(args):
        direct_mults = ConvolutionEngine.DIRECT.predicted_counts(n)[0]
        bound = multiplication_lower_bound(n)
        rows.append({
            "n": n,
            "engine": engine.value,
            "trials": len(times_ns),
            "mean_ns": int(round(sum(times_ns) / len(times_ns))),
            "min_ns": min(times_ns),
            "mults": counts[0],
            "mult_ratio_vs_direct": f"{counts[0] / direct_mults:.4f}",
            "lower_bound": bound,
            "lower_bound_gap": f"{counts[0] / bound:.2f}",
        })
    direct_ns = {row["n"]: row["min_ns"] for row in rows
                 if row["engine"] == ConvolutionEngine.DIRECT.value}
    for row in rows:
        ns = direct_ns.get(row["n"])
        row["time_ratio_vs_direct"] = f"{row['min_ns'] / ns:.4f}" if ns else ""
    columns = ["n", "engine", "trials", "mean_ns", "min_ns", "mults", "mult_ratio_vs_direct",
               "time_ratio_vs_direct", "lower_bound", "lower_bound_gap"]
    _emit(_format_rows(rows, columns, args.format), args.out)
    return 0


def cmd_convolve(args) -> int:
    data = _load_signal(args.input)
    kernel = _load_signal(args.kernel)
    if len(kernel) != len(data):
        raise CliError(
            f"kernel length {len(kernel)} ({args.kernel}) does not match "
            f"input length {len(data)} ({args.input})"
        )
    engine = ConvolutionEngine.from_name(args.engine)
    if args.linear:
        result = linear_convolution(kernel, data, engine)[:len(data)]
    else:
        result = cyclic_convolution(kernel, data, engine)
    _emit(_render_samples(result), args.out)
    return 0


def cmd_dft(args) -> int:
    data = _load_signal(args.input)
    engine = ConvolutionEngine.from_name(args.engine)
    plan = dft_plan(len(data))
    result = rader_dft(plan, data, engine)
    _emit(_render_samples(result), args.out)
    return 0


def _add_common(parser, *, sizes: str, trials: int) -> None:
    parser.add_argument("--sizes", default=sizes,
                        help=f"comma list, ranges allowed, e.g. 2-16,23 (default {sizes})")
    parser.add_argument("--trials", type=int, default=trials,
                        help=f"random inputs per case (default {trials})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base RNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--format", choices=["csv", "markdown", "json"], default="markdown",
                        help="report format (default markdown)")
    parser.add_argument("--out", default=None, help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeconv",
        description="Cyclic convolution engines with exact operation counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    engine_names = [engine.value for engine in ConvolutionEngine]

    table = sub.add_parser("table", help="operation-count table")
    _add_common(table, sizes="3,5,7,11,13,17,19,23", trials=5)
    table.add_argument("--engine", action="append", choices=engine_names,
                       help="engine to include (repeatable; default all)")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the verification suites")
    _add_common(verify, sizes="2-16,23,31", trials=20)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="wall-clock and ratio report")
    _add_common(bench, sizes="101,499,997", trials=5)
    bench.add_argument("--engine", action="append", choices=engine_names,
                       help="engine to include (repeatable; default all)")
    bench.set_defaults(func=cmd_bench)

    convolve = sub.add_parser("convolve", help="convolve two sample files")
    convolve.add_argument("input", help="data samples, one per line")
    convolve.add_argument("kernel", help="kernel samples, one per line")
    convolve.add_argument("--engine", choices=engine_names, default="direct")
    convolve.add_argument("--linear", action="store_true",
                          help="linear convolution (first n samples), zero padded to the "
                               "length in 2n-1..4n-2 where the engine's count is least")
    convolve.add_argument("--out", default=None)
    convolve.set_defaults(func=cmd_convolve)

    dft = sub.add_parser("dft", help="prime-length DFT of a sample file")
    dft.add_argument("input", help="samples, one per line")
    dft.add_argument("--engine", choices=engine_names, default="fast-prime")
    dft.add_argument("--out", default=None)
    dft.set_defaults(func=cmd_dft)

    return parser


# main's parser, built on the first call and kept for the process: parsing
# leaves a parser unchanged, and argparse looks up sys.stdout and sys.stderr
# when it prints.  Its subcommands hold the cmd_* functions of that first
# build.  build_parser() itself still returns a new parser.
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, CountModelError) as exc:
        print(f"primeconv: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CountModelError) else 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
