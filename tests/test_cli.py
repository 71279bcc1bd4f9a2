import argparse
import csv
import io
import json
import re
from numbers import Number

import pytest

from helpers import complex_samples, rng_for
from primeconv import fast, polycrt, transforms, verification
from primeconv.cli import build_parser, main
from primeconv.core import Signal
from primeconv.transforms import ConvolutionEngine, naive_dft

ENGINE_NAMES = [engine.value for engine in ConvolutionEngine]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_samples(path, values):
    lines = []
    for v in values:
        if isinstance(v, complex):
            lines.append(f"{v.real!r} {v.imag!r}")
        else:
            lines.append(f"{v!r}")
    path.write_text("\n".join(lines) + "\n")


def parse_samples(text):
    out = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 1:
            out.append(float(fields[0]))
        else:
            out.append(complex(float(fields[0]), float(fields[1])))
    return out


# --- table --------------------------------------------------------------------

def test_table_csv_counts(capsys):
    code, out, _ = run_cli(capsys, "table", "--sizes", "3,5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_key = {(row["n"], row["engine"]): row for row in rows}
    assert by_key[("3", "fast-prime")]["mults_measured"] == "4"
    assert by_key[("3", "fast-prime")]["adds_measured"] == "10"
    assert by_key[("5", "fast-prime")]["mults_measured"] == "11"
    assert by_key[("5", "fast-prime")]["adds_measured"] == "31"
    assert by_key[("3", "direct")]["mults_measured"] == "9"
    assert by_key[("3", "direct")]["adds_measured"] == "6"
    assert by_key[("3", "winograd-two-factor")]["mults_measured"] == "6"
    assert by_key[("3", "winograd-two-factor")]["adds_measured"] == "11"
    # measured always equals predicted, by construction
    for row in rows:
        assert row["mults_measured"] == row["mults_predicted"]
        assert row["adds_measured"] == row["adds_predicted"]
    # quoted literature columns ride along for the short sizes
    assert by_key[("3", "fast-prime")]["best_published_mults"] == "4"
    assert by_key[("3", "fast-prime")]["best_published_adds"] == "11"
    assert by_key[("5", "direct")]["best_published_mults"] == "8"


def test_table_lower_bound_column(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--sizes", "11", "--engine", "fast-prime", "--format", "csv",
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["lower_bound"] == "20"
    assert row["mults_measured"] == "56"
    assert float(row["max_rel_err"]) < 1e-10


def test_table_direct_17_is_annotated(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--sizes", "17", "--engine", "direct", "--format", "csv",
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["mults_measured"] == "289"
    assert row["adds_measured"] == "272"
    assert "189" in row["note"] and "172" in row["note"]


def test_table_output_is_stable(capsys):
    # No wall-clock column: two runs print the same bytes.
    args = ("table", "--sizes", "3,5,7", "--format", "csv")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "mean_ns" not in out_a


def test_table_markdown_shape(capsys):
    code, out, _ = run_cli(capsys, "table", "--sizes", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| n | engine |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 2 + 3  # header, rule, one row per engine


def test_table_json_parses(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--sizes", "3", "--engine", "direct", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 3
    assert rows[0]["mults_measured"] == 9


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "table", "--sizes", "3", "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert "fast-prime" in target.read_text()


def test_bad_sizes_exit_2(capsys):
    for bad in ("abc", "5-3", "0", ""):
        code, _, err = run_cli(capsys, "table", "--sizes", bad)
        assert code == 2
        assert "primeconv: error:" in err


def test_table_at_size_one(capsys):
    # Every engine does one product at n = 1, which is Winograd's minimum.
    code, out, err = run_cli(capsys, "table", "--sizes", "1", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["engine"] for row in rows] == ENGINE_NAMES
    for row in rows:
        assert (row["mults_measured"], row["adds_measured"], row["lower_bound"]) == ("1", "0", "1")
        assert row["max_rel_err"] == "0.000e+00"


def test_table_rejects_zero_trials(capsys):
    code, out, err = run_cli(capsys, "table", "--sizes", "3", "--trials", "0")
    assert code == 2
    assert out == ""
    assert err == "primeconv: error: --trials must be >= 1, got 0\n"


# --- verify ---------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--sizes", "2-6", "--trials", "2", "--format", "csv"
    )
    assert code == 0
    assert "result: PASS (9/9 suites)" in out
    rows = list(csv.DictReader(io.StringIO(out.split("result:")[0])))
    assert len(rows) == 9
    assert all(row["status"] == "PASS" for row in rows)


def test_verify_is_deterministic(capsys):
    args = ("verify", "--sizes", "2-6", "--trials", "2")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_verify_passes_at_nested_lengths(capsys):
    # Composite lengths with two to four coprime parts and with prime-power
    # parts, and the benchmark's prime 499 beside 498 = 2 * 3 * 83.
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "42",
        "--sizes", "6,10,12,20,30,36,60,72,77,143,200,210,498,499",
    )
    assert code == 0, out
    assert "result: PASS (9/9 suites)" in out


# Per suite, an ingredient only that suite uses, and a broken stand-in.
BROKEN_INGREDIENTS = {
    "count-exactness": (ConvolutionEngine, "predicted_counts", lambda engine, n: (n * n, 0)),
    "pair-table-antisymmetry": (verification, "pair_table_rows",
                                lambda plan, y: (0,) * plan.length),
    "component-sums-zero": (verification, "correction_oracle",
                            lambda kernel, data: (0,) * len(kernel)),
    "identity-decomposition": (verification, "identity_decomposition_residual", lambda n: 1.0),
    "seed-matrix-rank": (verification, "matrix_rank", len),
    # verification's own binding: the engines reach the plan through transforms'.
    "crt-round-trip": (verification, "two_factor_plan",
                       lambda kernel: polycrt.two_factor_plan([0.0] * len(kernel))),
    "rader-vs-naive": (verification, "naive_dft", lambda data: [0.0] * len(data)),
}


def failed_suites(out: str, passed: int) -> list:
    """The suites a csv ``verify`` report fails, after checking its summary line."""
    table, summary = out.split("result: ")
    assert summary == f"FAIL ({passed}/9 suites)\n"
    return [row["suite"] for row in csv.DictReader(io.StringIO(table)) if row["status"] == "FAIL"]


@pytest.mark.parametrize("suite", BROKEN_INGREDIENTS)
def test_verify_fails_only_the_suite_whose_ingredient_breaks(capsys, monkeypatch, suite):
    monkeypatch.setattr(*BROKEN_INGREDIENTS[suite])
    code, out, _ = run_cli(capsys, "verify", "--sizes", "5", "--trials", "2", "--format", "csv")
    assert code == 1
    assert failed_suites(out, 8) == [suite]


@pytest.fixture
def fast_prime_fault(monkeypatch):
    """Move output sample 0 of every fast-prime run by 1e-3, through the engine
    hook that perfbench's fault injection also wraps."""
    original = transforms.fast_cyclic_convolution

    def perturbed(plan, data, tally=None):
        out = list(original(plan, data, tally))
        out[0] += 1e-3
        return Signal(out)

    monkeypatch.setattr(transforms, "fast_cyclic_convolution", perturbed)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 30, 499])
def test_verify_inject_fault_fails_at_each_size(capsys, fast_prime_fault, n):
    # One size per run: in a sweep, a fault missed at one size is hidden by
    # the sizes that catch it.  Exactly the suites that run fast-prime
    # against an oracle fail; its counts are untouched.
    code, out, _ = run_cli(capsys, "verify", "--sizes", str(n), "--trials", "2",
                           "--format", "csv")
    assert code == 1
    assert failed_suites(out, 6) == ["oracle-equivalence-real", "oracle-equivalence-complex",
                                     "rader-vs-naive"]


def test_verify_fault_in_the_block_output_fails_the_lemma_suites(capsys, monkeypatch):
    # The two lemma suites read the block's public run, so a fault in its
    # output fails them too, beside the suites that run fast-prime against
    # an oracle.  Only scalar blocks are moved: a nested plan's outer block
    # runs on lane vectors, whose inner scalar blocks carry the fault.
    original = fast.FastPlan.run

    def perturbed(plan, z, tally):
        out = original(plan, z, tally)
        if isinstance(out[0], Number):
            out[0] += 1e-3
        return out

    monkeypatch.setattr(fast.FastPlan, "run", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--sizes", "5", "--trials", "2", "--format", "csv")
    assert code == 1
    assert failed_suites(out, 4) == ["oracle-equivalence-real", "oracle-equivalence-complex",
                                     "pair-table-antisymmetry", "component-sums-zero",
                                     "rader-vs-naive"]


def test_verify_fault_in_the_two_factor_block_fails_the_crt_suite(capsys, monkeypatch):
    # crt-round-trip reads the two-factor block's public run, so a fault in
    # its output fails that suite beside the ones that run two-factor against
    # an oracle.  Only scalar blocks are moved, as for fast-prime above.
    original = polycrt.TwoFactorPlan.run

    def perturbed(plan, z, tally):
        out = original(plan, z, tally)
        if isinstance(out[0], Number):
            out[0] += 1e-3
        return out

    monkeypatch.setattr(polycrt.TwoFactorPlan, "run", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--sizes", "5", "--trials", "2", "--format", "csv")
    assert code == 1
    assert failed_suites(out, 5) == ["oracle-equivalence-real", "oracle-equivalence-complex",
                                     "crt-round-trip", "rader-vs-naive"]


def test_verify_out_file_still_prints_summary(tmp_path, capsys):
    target = tmp_path / "verify.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--sizes", "2-6", "--trials", "2", "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out.strip().startswith("result: PASS")
    assert "oracle-equivalence-real" in target.read_text()


def test_verify_rejects_zero_trials_even_with_injected_fault(capsys, fast_prime_fault):
    # Zero trials would compare nothing and report the fault as PASS.
    code, out, err = run_cli(capsys, "verify", "--sizes", "5", "--trials", "0")
    assert code == 2
    assert out == ""
    assert err == "primeconv: error: trials must be >= 1, got 0\n"


def test_verify_accepts_size_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--sizes", "1-4", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "result: PASS (9/9 suites)"
    assert "sizes=1,2,3,4 trials=20" in out


# --- bench ----------------------------------------------------------------------

def test_bench_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "5,7", "--trials", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    fast_5 = next(r for r in rows if r["n"] == "5" and r["engine"] == "fast-prime")
    assert fast_5["mults"] == "11"
    assert fast_5["mult_ratio_vs_direct"] == "0.4400"
    assert fast_5["lower_bound"] == "8"
    assert int(fast_5["mean_ns"]) > 0
    # Timing ratios are reported, never checked: only direct's own is fixed.
    assert "time_ratio_vs_direct" in rows[0]
    assert all(r["time_ratio_vs_direct"] == "1.0000" for r in rows if r["engine"] == "direct")
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "5", "--trials", "3", "--format", "csv",
        "--engine", "fast-prime",
    )
    assert code == 0
    (alone,) = csv.DictReader(io.StringIO(out))
    assert alone["time_ratio_vs_direct"] == ""


def test_bench_checks_the_count_model(capsys, monkeypatch):
    def wrong_model(engine, n):
        return (0, 0)

    monkeypatch.setattr(ConvolutionEngine, "predicted_counts", wrong_model)
    for command in ("bench", "table"):
        # A verification failure: exit 1, one error line, no report.
        assert run_cli(capsys, command, "--sizes", "5", "--trials", "3",
                       "--engine", "direct") == (
            1, "", "primeconv: error: count model out of sync for direct at n=5: "
                   "measured (25, 20), predicted (0, 0)\n")


def test_bench_requires_three_trials(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "5", "--trials", "2")
    assert code == 2
    assert "at least 3 trials" in err


# --- convolve ---------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_convolve_cyclic_engines(tmp_path, capsys, engine):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    write_samples(data, [4.0, 5.0, 6.0])
    write_samples(kernel, [1.0, 2.0, 3.0])
    code, out, _ = run_cli(
        capsys, "convolve", str(data), str(kernel), "--engine", engine
    )
    assert code == 0
    got = parse_samples(out)
    assert got == pytest.approx([31.0, 31.0, 28.0])


def test_convolve_delta_kernel_echoes_input(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    write_samples(data, [7.5, -2.0, 0.25])
    write_samples(kernel, [1.0, 0.0, 0.0])
    code, out, _ = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 0
    assert parse_samples(out) == pytest.approx([7.5, -2.0, 0.25])


def test_convolve_linear_flag(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    write_samples(data, [4.0, 5.0, 6.0])
    write_samples(kernel, [1.0, 2.0, 3.0])
    code, out, _ = run_cli(capsys, "convolve", str(data), str(kernel), "--linear")
    assert code == 0
    assert parse_samples(out) == pytest.approx([4.0, 13.0, 28.0])


def test_convolve_complex_files_round_trip(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    write_samples(data, [complex(1.0, 1.0), complex(0.0, -2.0), complex(3.0, 0.5)])
    write_samples(kernel, [complex(0.5, 0.0), complex(1.0, 1.0), complex(-1.0, 2.0)])
    code, out, _ = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 0
    got = parse_samples(out)
    assert all(isinstance(v, complex) for v in got)
    assert len(got) == 3


def test_convolve_comments_and_blank_lines(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    data.write_text("# data file\n4.0\n\n5.0\n6.0\n")
    write_samples(kernel, [1.0, 0.0, 0.0])
    code, out, _ = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 0
    assert parse_samples(out) == pytest.approx([4.0, 5.0, 6.0])

    data.write_text("# only comments\n\n   \n# and blanks\n")
    code, out, err = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 2
    assert out == ""
    assert err == f"primeconv: error: {data}: no samples found\n"


def test_convolve_length_mismatch_names_both(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    write_samples(data, [1.0, 2.0, 3.0, 4.0])
    write_samples(kernel, [1.0, 2.0])
    code, _, err = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 2
    assert "2" in err and "4" in err


def test_convolve_parse_error_names_line(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    data.write_text("1.0\nnot-a-number\n3.0\n")
    write_samples(kernel, [1.0, 0.0, 0.0])
    code, _, err = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 2
    assert ":2:" in err


@pytest.mark.parametrize("command", ["dft", "convolve"])
@pytest.mark.parametrize("sample, shown", [("nan", "nan"), ("1e400", "inf"),
                                           ("0.5 -1e400", "(0.5-infj)")])
def test_non_finite_sample_names_its_file_and_line(tmp_path, capsys, command, sample, shown):
    good = tmp_path / "good.txt"
    write_samples(good, [1.0, 2.0, 3.0, 4.0, 5.0])
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# header\n1.0\n\n  # note\n2.0\n{sample}\n4.0\n5.0\n")
    argv = ["dft", str(bad)] if command == "dft" else ["convolve", str(good), str(bad)]
    assert run_cli(capsys, *argv) == (
        2, "", f"primeconv: error: {bad}:6: non-finite sample {shown}\n")


def assert_convolve_overflow_exit_2(tmp_path, capsys, n):
    kernel, data = tmp_path / "kernel.txt", tmp_path / "data.txt"
    write_samples(kernel, [2.0] + [0.0] * (n - 1))
    write_samples(data, [1e308] * n)
    for engine in ConvolutionEngine:
        code, out, err = run_cli(capsys, "convolve", str(data), str(kernel),
                                 "--engine", engine.value)
        assert (code, out) == (2, "")
        assert re.fullmatch(f"primeconv: error: the {engine.value} engine overflowed at "
                            f"n = {n}: the input was finite, but the result has a "
                            "non-finite sample (inf|nan)\n", err), err


def test_convolve_library_error_exit_2(tmp_path, capsys):
    # A library error on valid one-sample files exits 2 and names the engine;
    # n = 1 is a length every engine runs, so the error is an overflow.
    assert_convolve_overflow_exit_2(tmp_path, capsys, 1)


def test_convolve_overflow_exit_2(tmp_path, capsys):
    assert_convolve_overflow_exit_2(tmp_path, capsys, 3)


def test_convolve_missing_file(tmp_path, capsys):
    kernel = tmp_path / "kernel.txt"
    write_samples(kernel, [1.0])
    code, _, err = run_cli(capsys, "convolve", str(tmp_path / "nope.txt"), str(kernel))
    assert code == 2
    assert "primeconv: error:" in err


def test_convolve_too_many_fields(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    data.write_text("1.0 2.0 3.0\n")
    write_samples(kernel, [1.0])
    code, _, err = run_cli(capsys, "convolve", str(data), str(kernel))
    assert code == 2
    assert "expected 1 or 2" in err


def test_convolve_out_file(tmp_path, capsys):
    data = tmp_path / "data.txt"
    kernel = tmp_path / "kernel.txt"
    target = tmp_path / "result.txt"
    write_samples(data, [4.0, 5.0, 6.0])
    write_samples(kernel, [1.0, 2.0, 3.0])
    code, out, _ = run_cli(
        capsys, "convolve", str(data), str(kernel), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert parse_samples(target.read_text()) == pytest.approx([31.0, 31.0, 28.0])


@pytest.mark.parametrize("command", ["table", "convolve", "dft"])
def test_unwritable_out_file_exit_2(tmp_path, capsys, command):
    samples = tmp_path / "samples.txt"
    write_samples(samples, [1.0, 2.0, 3.0])
    target = tmp_path / "missing" / "out.txt"
    argv = {
        "table": ["table", "--sizes", "3"],
        "convolve": ["convolve", str(samples), str(samples)],
        "dft": ["dft", str(samples)],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"primeconv: error: {target}: No such file or directory\n"
    assert not target.parent.exists()


# --- dft -------------------------------------------------------------------------

def test_dft_matches_naive(tmp_path, capsys):
    # p = 2 runs Rader through a length-1 convolution.
    data = tmp_path / "data.txt"
    for samples in ([0.5, -1.0, 2.0, 0.25, -0.75], [0.5, -1.0]):
        write_samples(data, samples)
        code, out, _ = run_cli(capsys, "dft", str(data))
        assert code == 0
        got = parse_samples(out)
        want = list(naive_dft(samples))
        assert got == pytest.approx(want, abs=1e-9)


def test_dft_composite_length_exit_2(tmp_path, capsys):
    data = tmp_path / "data.txt"
    write_samples(data, [1.0] * 6)
    code, _, err = run_cli(capsys, "dft", str(data))
    assert code == 2
    assert err == "primeconv: error: need a prime p, got 6\n"


def test_dft_engine_choice(tmp_path, capsys):
    data = tmp_path / "data.txt"
    samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    write_samples(data, samples)
    outputs = []
    for engine in ENGINE_NAMES:
        code, out, _ = run_cli(capsys, "dft", str(data), "--engine", engine)
        assert code == 0
        outputs.append(parse_samples(out))
    want = list(naive_dft(samples))
    for got in outputs:
        assert got == pytest.approx(want, abs=1e-9)


# p = 5 with every sample but x[0] a signed zero: each bin is x[0] exactly,
# whatever the platform's twiddles, and the engines differ only in the signs
# of the zero imaginary parts.
DFT_ZERO_IMAG_SIGNS = {
    "direct": ("0.0", "0.0", "0.0", "-0.0", "0.0"),
    "fast-prime": ("0.0", "-0.0", "-0.0", "0.0", "-0.0"),
    "winograd-two-factor": ("0.0", "0.0", "0.0", "0.0", "0.0"),
}


@pytest.mark.parametrize("engine", sorted(DFT_ZERO_IMAG_SIGNS))
def test_dft_out_file_bytes(tmp_path, capsys, engine):
    real = tmp_path / "real.txt"
    real.write_text("2.0\n-0.0\n0.0\n-0.0\n0.0\n")
    mixed = tmp_path / "complex.txt"
    mixed.write_text("-1.5 -0.0\n-0.0 0.0\n0.0 -0.0\n-0.0 -0.0\n0.0 0.0\n")
    target = tmp_path / "out.txt"
    assert run_cli(capsys, "dft", str(real), "--engine", engine, "--out", str(target))[0] == 0
    assert target.read_bytes() == b"2.0 0.0\n" * 5
    assert run_cli(capsys, "dft", str(mixed), "--engine", engine, "--out", str(target))[0] == 0
    want = "".join(f"-1.5 {imag}\n" for imag in DFT_ZERO_IMAG_SIGNS[engine])
    assert target.read_bytes() == want.encode()


# The p = 7 twin: 6 = 2 (mod 4), so Rader runs two length-3 convolutions
# and combines them, and these are the signs that split leaves.
DFT_SPLIT_ZERO_IMAG_SIGNS = {
    "direct": ("0.0", "0.0", "0.0", "0.0", "0.0", "-0.0", "0.0"),
    "fast-prime": ("0.0", "0.0", "0.0", "-0.0", "0.0", "0.0", "-0.0"),
    "winograd-two-factor": ("0.0", "0.0", "0.0", "0.0", "0.0", "0.0", "0.0"),
}


@pytest.mark.parametrize("engine", sorted(DFT_SPLIT_ZERO_IMAG_SIGNS))
def test_dft_split_out_file_bytes(tmp_path, capsys, engine):
    real = tmp_path / "real.txt"
    real.write_text("2.0\n-0.0\n0.0\n-0.0\n0.0\n-0.0\n0.0\n")
    mixed = tmp_path / "complex.txt"
    mixed.write_text("-1.5 -0.0\n-0.0 0.0\n-0.0 0.0\n-0.0 -0.0\n-0.0 -0.0\n-0.0 0.0\n-0.0 0.0\n")
    target = tmp_path / "out.txt"
    assert run_cli(capsys, "dft", str(real), "--engine", engine, "--out", str(target))[0] == 0
    assert target.read_bytes() == b"2.0 0.0\n" * 7
    assert run_cli(capsys, "dft", str(mixed), "--engine", engine, "--out", str(target))[0] == 0
    want = "".join(f"-1.5 {imag}\n" for imag in DFT_SPLIT_ZERO_IMAG_SIGNS[engine])
    assert target.read_bytes() == want.encode()


def test_dft_overflow_exit_2(tmp_path, capsys):
    # At p = 7 the Rader split's row sums overflow before any engine runs.
    data = tmp_path / "data.txt"
    write_samples(data, [1.5e308, -1.5e308] * 3 + [1.5e308])
    for engine in ConvolutionEngine:
        code, out, err = run_cli(capsys, "dft", str(data), "--engine", engine.value)
        assert (code, out) == (2, "")
        assert re.fullmatch(f"primeconv: error: the {engine.value} engine overflowed at "
                            "n = 7: the input was finite, but the result has a "
                            "non-finite sample -?inf\n", err), err


def test_repeated_dft_calls_write_identical_files(cold_rader_runners, tmp_path, capsys):
    # The first call per engine builds the runner; the second reuses it.
    data = tmp_path / "data.txt"
    write_samples(data, complex_samples(rng_for(60), 29))
    for engine in ENGINE_NAMES:
        written = []
        for call in range(2):
            target = tmp_path / f"{engine}-{call}.txt"
            code, out, _ = run_cli(capsys, "dft", str(data), "--engine", engine,
                                   "--out", str(target))
            assert (code, out) == (0, "")
            written.append(target.read_bytes())
        assert written[0] == written[1], engine


def test_dft_calls_at_one_prime_share_one_parser_and_one_plan(tmp_path, capsys, monkeypatch):
    parsers, roots = [], []
    parse_args = argparse.ArgumentParser.parse_args
    find_root = transforms.find_primitive_root

    def record_parser(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    def record_root(p):
        roots.append(p)
        return find_root(p)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record_parser)
    monkeypatch.setattr(transforms, "find_primitive_root", record_root)
    data = tmp_path / "data.txt"
    write_samples(data, complex_samples(rng_for(61), 37))
    outputs = []
    for engine in ENGINE_NAMES:
        code, out, _ = run_cli(capsys, "dft", str(data), "--engine", engine)
        assert code == 0
        outputs.append(parse_samples(out))
    assert len(parsers) == 3 and all(parser is parsers[0] for parser in parsers)
    # At most the first call builds dft_plan(37); an earlier test may have.
    assert roots in ([], [37])
    want = list(naive_dft(complex_samples(rng_for(61), 37)))
    for got in outputs:
        assert got == pytest.approx(want, abs=1e-9)


def test_bad_argv_after_a_good_call_exits_2_with_the_same_message(tmp_path, capsys):
    data = tmp_path / "data.txt"
    write_samples(data, [1.0, 2.0, 3.0])
    composite = tmp_path / "composite.txt"
    write_samples(composite, [1.0] * 6)
    bad = ["dft", str(data), "--engine", "fft"]
    with pytest.raises(SystemExit) as fresh:
        build_parser().parse_args(bad)  # a parser no call has used
    fresh_err = capsys.readouterr().err
    for _ in range(2):
        assert run_cli(capsys, "dft", str(data))[0] == 0
        with pytest.raises(SystemExit) as again:
            main(bad)
        assert again.value.code == fresh.value.code == 2
        assert capsys.readouterr().err == fresh_err
        assert run_cli(capsys, "dft", str(composite)) == (
            2, "", "primeconv: error: need a prime p, got 6\n")
