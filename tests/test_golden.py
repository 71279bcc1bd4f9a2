"""Byte-for-byte golden outputs of the CLI's deterministic reports.

README promises that ``verify`` and ``table --no-timing`` print the same
bytes for a fixed seed on every supported Python.  The files under
``tests/golden/`` hold that output; regenerate them only for a change that
is meant to alter a report, and say why in the change log.  Only stdout is
compared; a composite prime-power part (4 in 12) runs as one block, and
neither report writes a warning.
"""

import os
import subprocess
import sys
from pathlib import Path

import primeconv

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = {
    "verify_seed42.txt": ["verify", "--seed", "42"],
    "table_no_timing.csv": ["table", "--no-timing", "--sizes", "2-16,30,60,210,498",
                            "--trials", "2", "--format", "csv"],
}


def test_reports_match_golden_bytes():
    # The CLI runs in a child process; point it at the package under test,
    # which need not be installed.
    package_root = str(Path(primeconv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    for name, args in REPORTS.items():
        run = subprocess.run([sys.executable, "-m", "primeconv", *args],
                             capture_output=True, timeout=600, env=env)
        assert run.returncode == 0, (name, run.stderr.decode())
        assert run.stdout == (GOLDEN / name).read_bytes(), name
