"""Byte-for-byte golden outputs of the CLI's deterministic reports.

README promises that ``verify`` and ``table --no-timing`` print the same
bytes for a fixed seed on every supported Python.  The files under
``tests/golden/`` hold that output; regenerate them only for a change that
is meant to alter a report, and say why in the change log.  Only stdout is
compared; a composite prime-power part (4 in 12) runs as one block, and
neither report writes a warning.

``convolve_cyclic.txt`` holds what ``convolve`` prints for the inputs
under ``tests/golden/convolve/``, per engine.  Convolution is pure IEEE
arithmetic, so these bits, signed zeros included, are the same everywhere.

``dft.txt`` holds what ``dft`` prints for the inputs under
``tests/golden/dft/``, per engine: real and complex samples with mixed
signed zeros at p = 5, 13 (Rader length 12 = 3 * 4) and 31.  Beyond IEEE
arithmetic its bits depend on the twiddles ``cmath.exp`` returns, which
agree on CPython 3.10-3.13 with glibc's libm.
"""

import os
import subprocess
import sys
from pathlib import Path

import primeconv
from primeconv.cli import main
from primeconv.transforms import ConvolutionEngine

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


def test_convolve_out_files_match_golden_bytes(tmp_path):
    # CI builds the same file from stdout, one "# engine kind" line per run.
    inputs = GOLDEN / "convolve"
    written = []
    for engine in ConvolutionEngine:
        for kind in ("real", "complex", "zero", "long"):
            target = tmp_path / f"{engine.value}-{kind}.txt"
            assert main(["convolve", str(inputs / f"{kind}_data.txt"),
                         str(inputs / f"{kind}_kernel.txt"), "--engine", engine.value,
                         "--out", str(target)]) == 0
            written.append(f"# {engine.value} {kind}\n".encode() + target.read_bytes())
    assert b"".join(written) == (GOLDEN / "convolve_cyclic.txt").read_bytes()


DFT_KINDS = ("real_5", "complex_5", "real_13", "complex_13", "real_31", "complex_31")


def test_dft_out_files_match_golden_bytes(tmp_path):
    # CI builds the same file from stdout, one "# engine kind" line per run.
    inputs = GOLDEN / "dft"
    written = []
    for engine in ConvolutionEngine:
        for kind in DFT_KINDS:
            target = tmp_path / f"{engine.value}-{kind}.txt"
            assert main(["dft", str(inputs / f"{kind}.txt"), "--engine", engine.value,
                         "--out", str(target)]) == 0
            written.append(f"# {engine.value} {kind}\n".encode() + target.read_bytes())
    assert b"".join(written) == (GOLDEN / "dft.txt").read_bytes()
