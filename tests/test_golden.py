"""The one place the CLI's reports are run and compared, warnings as errors.

README promises that ``verify`` and ``table`` print the same bytes for a
fixed seed on every supported Python; only ``bench`` reports wall time.
The files under ``tests/golden/`` hold that output; regenerate them only
for a change that is meant to alter a report, and say why in the change
log.  ``table``, ``verify`` and ``bench`` run in fresh ``python -W error``
processes, so a warning anywhere, on-demand imports included, fails them;
so does stderr output, and the json reports must parse.

``convolve_cyclic.txt`` holds what ``convolve`` prints for the inputs
under ``tests/golden/convolve/``, per engine, after a ``# engine kind``
line, and ``convolve_linear.txt`` what ``convolve --linear`` prints for
them, each engine at its own padded length (fast-prime embeds n = 23 at
60).  Convolution is pure IEEE arithmetic, so these bits, signed zeros
included, are the same everywhere.  ``dft.txt`` holds the same for
``dft`` on ``tests/golden/dft/``: real and complex samples with mixed
signed zeros at p = 5, 13 (Rader length 12 = 3 * 4) and 31 (two Rader
convolutions of length 15, through the twiddles' symmetry).  Its bits also
depend on the twiddles ``cmath.exp`` returns, which agree on CPython
3.10-3.13 with glibc's libm.  Both run in-process, where the suite's
``filterwarnings = ["error"]`` makes every warning an error, and their
``--out`` files hold the bytes they print.
"""

import json
from pathlib import Path

from helpers import run_fresh
from primeconv.cli import main
from primeconv.transforms import ConvolutionEngine

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = {
    "verify_seed42.txt": ["verify", "--seed", "42"],
    "table.csv": ["table", "--sizes", "2-16,30,60,210,498", "--trials", "2", "--format", "csv"],
}
CONVOLVE_INPUTS = [(kind, (GOLDEN / "convolve" / f"{kind}_data.txt",
                           GOLDEN / "convolve" / f"{kind}_kernel.txt"))
                   for kind in ("real", "complex", "zero", "long")]
DFT_KINDS = ("real_5", "complex_5", "real_13", "complex_13", "real_31", "complex_31")


def report(*argv) -> bytes:
    """stdout of ``primeconv *argv`` in a fresh process; it must exit 0 and
    write nothing to stderr."""
    run = run_fresh("-m", "primeconv", *argv)
    assert (run.returncode, run.stderr) == (0, b""), (argv, run.stderr.decode())
    return run.stdout


def test_reports_match_golden_bytes():
    for name, args in REPORTS.items():
        assert report(*args) == (GOLDEN / name).read_bytes(), name


def test_bench_report_runs():
    assert report("bench", "--sizes", "5,7", "--trials", "3", "--format", "csv")


def test_json_reports_parse(tmp_path):
    # json and verification are imported on demand, here by processes that
    # had not loaded them.
    assert json.loads(report("table", "--format", "json"))
    target = tmp_path / "verify.json"
    assert report("verify", "--sizes", "5", "--trials", "2", "--format", "json",
                  "--out", str(target)) == b"result: PASS (9/9 suites)\n"
    assert json.loads(target.read_text())


def golden_runs(tmp_path, command, inputs):
    """Run ``primeconv *command`` on each (kind, input files) pair per
    engine, writing --out files, and return their bytes joined as the golden
    holds them.  Any warning fails the run, as it fails every tier-1 test."""
    written = []
    for engine in ConvolutionEngine:
        for kind, files in inputs:
            target = tmp_path / f"{engine.value}-{kind}.txt"
            assert main([*command, *map(str, files), "--engine", engine.value,
                         "--out", str(target)]) == 0
            written.append(f"# {engine.value} {kind}\n".encode() + target.read_bytes())
    return b"".join(written)


def test_convolve_out_files_match_golden_bytes(tmp_path):
    runs = golden_runs(tmp_path, ("convolve",), CONVOLVE_INPUTS)
    assert runs == (GOLDEN / "convolve_cyclic.txt").read_bytes()


def test_convolve_linear_out_files_match_golden_bytes(tmp_path):
    runs = golden_runs(tmp_path, ("convolve", "--linear"), CONVOLVE_INPUTS)
    assert runs == (GOLDEN / "convolve_linear.txt").read_bytes()


def test_dft_out_files_match_golden_bytes(tmp_path):
    runs = golden_runs(tmp_path, ("dft",), [
        (kind, (GOLDEN / "dft" / f"{kind}.txt",)) for kind in DFT_KINDS])
    assert runs == (GOLDEN / "dft.txt").read_bytes()
