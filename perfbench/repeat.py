"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--trace 0|1] [--out FILE]

Each run uses ``run_seconds`` from BENCHMARK.json.  For every workload and
metric it prints the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median.  ``--out`` also writes the summary, with the Python version,
core count and CPU model, as JSON (this is how baseline.json was made).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in WORKLOADS:
        values, units = {}, {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", args.trace],
                capture_output=True, text=True, timeout=600, check=False, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"failed {result['failed']}/{result['attempted']}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        for name, s in summary[workload].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:<26} {name:<40} median {s['median']:14.6g} {s['unit']:<6} "
                  f"spread {spread}")
    if args.out:
        record = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "run_seconds": seconds,
            "trace": int(args.trace),
            "seeds": seeds,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
