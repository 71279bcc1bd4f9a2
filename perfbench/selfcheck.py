"""Prove that the benchmark's correctness gate can fail, and passes when clean.

    python3 perfbench/selfcheck.py

For every workload, one short run with ``--inject-fault`` (every fast-prime
result is perturbed by 1e-6) must exit non-zero and report ``failed > 0``
and ``correct: false``; one short clean run must exit 0 with ``failed == 0``.
Exits 0 when all of that holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "0", *extra],
        capture_output=True, text=True, timeout=180, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        code, result = run(workload, "--inject-fault")
        caught = code != 0 and result["failed"] > 0 and not result["correct"]
        print(f"{workload:<26} injected fault: exit {code}, failed {result['failed']}"
              f"/{result['attempted']} -> {'caught' if caught else 'NOT CAUGHT'}")
        code, result = run(workload)
        clean = code == 0 and result["failed"] == 0 and result["correct"]
        print(f"{workload:<26} clean run:      exit {code}, failed {result['failed']}"
              f"/{result['attempted']} -> {'pass' if clean else 'FAIL'}")
        ok = ok and caught and clean
    print("self-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
