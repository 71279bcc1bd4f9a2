"""The package's module layering, read from the source with ``ast``, and
what a fresh process loads.

``nesting`` is the Good-Thomas machinery both reduced engines share, so it
sits below them; the engines reach it through its public names and never
through each other, and each hands it its plan type, which builds and
counts the engine's block; tools that only verification uses live there.  The
package root exports the engine protocol, the transforms and the oracles;
each engine's own names stay at its module.  Outside ``transforms`` no
module names an engine but direct: the rest iterate ``ConvolutionEngine``.
A one-shot ``convolve`` or ``dft`` loads neither ``verification`` nor the
report formats: the CLI imports them where they are used, and ``verify``
loads no ``dataclasses``.
"""

import ast
from pathlib import Path

import pytest

import primeconv
from helpers import run_fresh
from primeconv import core, fast, nesting, polycrt, transforms, verification

PACKAGE = Path(primeconv.__file__).parent
VERIFICATION_TOOLS = ("block_plan", "reverse_permute")
ROOT_NAMES = {
    "ConvolutionEngine", "cyclic_convolution",
    "OpTally", "Scalar", "Signal",
    "DftPlan", "dft_plan", "rader_dft", "linear_convolution", "padded_length",
    "direct_cyclic_convolution", "naive_dft", "schoolbook_linear_convolution",
    "max_relative_error",
    "__version__",
}
# Each engine's plans, builders, runners and counts, and the number-theory
# helpers, are read at their own module and never from the root.
MODULE_NAMES = {
    fast: ("FastPlan", "plan_create", "fast_cyclic_convolution", "predicted_counts",
           "multiplication_lower_bound"),
    polycrt: ("TwoFactorPlan", "two_factor_plan", "winograd_two_factor_convolution",
              "two_factor_predicted_counts", "poly_mul"),
    nesting: ("NestedPlan", "UnitPlan", "block_lengths", "good_thomas_order", "nest",
              "nested_counts"),
    core: ("as_signal", "direct_predicted_counts", "factorize", "four_slot_pass"),
    transforms: ("find_primitive_root",),
}


def imports(module: str, top_level: bool = False) -> list:
    """(source, name) for each ``from source import name`` in ``module``,
    with the package's own modules named without the ``primeconv.`` prefix;
    only the module's own statements when ``top_level``, else every import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in tree.body if top_level else ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.startswith("primeconv."):
                source = source.removeprefix("primeconv.")
            found += [(source or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.removeprefix("primeconv."), alias.name) for alias in node.names]
    return found


def references(name: str) -> list:
    """(module, enclosing class and function) for each use of ``name`` in the
    package, as a bare name or an attribute."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.append((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def package_modules(module: str) -> set:
    return {source for source, _ in imports(module) if (PACKAGE / f"{source}.py").exists()}


def test_nesting_imports_only_core_and_counting():
    assert package_modules("nesting") <= {"core", "counting"}


@pytest.mark.parametrize("module, other", [("fast", "polycrt"), ("polycrt", "fast")])
def test_engines_import_nesting_and_not_each_other(module, other):
    assert "nesting" in package_modules(module)
    assert other not in package_modules(module)


@pytest.mark.parametrize("module, kind", [(fast, fast.FastPlan), (polycrt, polycrt.TwoFactorPlan)],
                         ids=["fast", "polycrt"])
def test_each_engine_builds_and_counts_its_block_on_its_plan_type(module, kind):
    # The plan type also runs its block: no module-level schedule beside it.
    assert {"build", "counts", "engine", "run"} <= set(vars(kind)), kind
    assert not {"_block", "_block_counts", "_execute"} & set(vars(module)), module.__name__


def test_two_factor_recombines_only_in_its_block_run():
    # The closed-form recombination is inline in TwoFactorPlan.run, the one
    # place that reads the per-length constant, and verify's CRT suite runs it.
    assert not hasattr(polycrt, "two_factor_recombine")
    assert [name for source, name in imports("verification") if source == "polycrt"] == [
        "two_factor_plan"]
    assert references("two_factor_system") == [("polycrt", "TwoFactorPlan.run")]


def test_direct_and_poly_mul_share_one_four_slot_pass():
    # The quadratic register pass is written once, in core, and only the two
    # schoolbook loops call it.
    assert set(references("four_slot_pass")) == {("core", "direct_cyclic_convolution"),
                                                  ("polycrt", "poly_mul")}


def test_nesting_has_one_length_domain():
    # n = 1 is the nest over no parts; no engine-named length check remains.
    assert not {"require_length", "kernel_blocks"} & set(vars(nesting))


def test_rader_reads_the_good_thomas_order_from_nesting():
    # Rader's 2 x h split is a Good-Thomas nest: nesting builds its order.
    assert ("nesting", "good_thomas_order") in imports("transforms")


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_private_name_is_imported(module):
    assert [name for _, name in imports(module) if name.startswith("_")] == []


def test_only_transforms_names_an_engine_other_than_direct():
    # ConvolutionEngine is the one list of engines: the other modules iterate
    # it, so a new member reaches verify's suites without being named there.
    others = {engine.name for engine in transforms.ConvolutionEngine} - {"DIRECT"}
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "transforms":
            named += [(path.stem, node.attr) for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr in others]
    assert named == []


def test_root_exports_the_protocol_transforms_and_oracles_only():
    assert set(primeconv.__all__) == ROOT_NAMES
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert not hasattr(primeconv, name), name
            assert hasattr(module, name), (module.__name__, name)


def test_public_names_resolve_and_exclude_verification_tools():
    assert [name for name in primeconv.__all__ if not hasattr(primeconv, name)] == []
    for name in VERIFICATION_TOOLS:
        assert name not in primeconv.__all__
        assert not hasattr(fast, name) and not hasattr(core, name), name
        assert hasattr(verification, name), name


def test_cli_imports_verification_and_report_formats_on_demand():
    assert {"verification", "csv", "json"}.isdisjoint(
        source for source, _ in imports("cli", top_level=True))


def test_cli_reads_and_writes_files_without_pathlib():
    assert "pathlib" not in {source for source, _ in imports("cli")}


# Runs in a fresh interpreter: argv[1] is a p = 5 sample file, argv[2] the
# dft output path.  Writes to stderr, per step, the watched modules loaded
# since start-up.
LOAD_PROBE = """
import sys
WATCHED = ("primeconv.verification", "dataclasses", "fractions", "csv", "json")
before = set(sys.modules)
steps = {}
def record(step):
    steps[step] = [name for name in WATCHED if name in sys.modules and name not in before]
import primeconv
record("import primeconv")
import primeconv.cli
record("import primeconv.cli")
assert primeconv.cli.main(["dft", sys.argv[1], "--out", sys.argv[2]]) == 0
record("dft")
assert primeconv.cli.main(["verify", "--sizes", "3", "--trials", "1"]) == 0
record("verify")
print(repr(steps), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def load_steps(tmp_path_factory):
    folder = tmp_path_factory.mktemp("load_probe")
    samples = folder / "samples.txt"
    samples.write_text("1\n2\n0.5 -1\n-3\n0\n")
    run = run_fresh("-c", LOAD_PROBE, str(samples), str(folder / "out.txt"))
    assert run.returncode == 0, run.stderr.decode()
    return ast.literal_eval(run.stderr.decode().splitlines()[-1])


@pytest.mark.parametrize("step", ["import primeconv", "import primeconv.cli", "dft"])
def test_one_shot_steps_load_no_verification_or_report_code(load_steps, step):
    assert load_steps[step] == []


def test_verify_loads_verification_on_demand(load_steps):
    assert "primeconv.verification" in load_steps["verify"]


def test_verify_loads_no_dataclasses(load_steps):
    assert "dataclasses" not in load_steps["verify"]
