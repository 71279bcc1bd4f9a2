"""The library names the benchmark under ``perfbench/`` reads, taken from its
source with ``ast``; nothing there is imported or edited.

The benchmark runs on this package's committed source, so renaming a name
it reads would break the benchmark, not the package's own tests; these
tests make such a rename fail here first.
"""

import ast
import importlib
from pathlib import Path

from primeconv import transforms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The modules perfbench/run.py loads as attributes of its ``lib``.
LIB_MODULES = ("cli", "core", "counting", "fast", "polycrt", "transforms")
# Span targets the library no longer has; tracing reports each as absent.
ABSENT_SPAN_TARGETS = {("fast", "as_signal"), ("polycrt", "as_signal"),
                       ("fast", "reverse_permute"), ("polycrt", "crt_reconstruct")}


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def module(name: str):
    return importlib.import_module(f"primeconv.{name}")


def test_every_lib_name_in_run_py_exists():
    read = {(node.value.attr, node.attr) for node in ast.walk(parse("run.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "lib"
            and node.value.attr in LIB_MODULES}
    assert ("transforms", "rader_dft") in read
    assert [pair for pair in sorted(read) if not hasattr(module(pair[0]), pair[1])] == []


def test_fault_injection_and_counting_pass_names_exist():
    # inject_fault replaces transforms.fast_cyclic_convolution, and the
    # dft-cli counting pass permutes its input by plan.input_order.
    assert callable(transforms.fast_cyclic_convolution)
    assert "input_order" in transforms.DftPlan._fields


def test_span_targets_missing_are_exactly_the_known_four():
    (targets,) = [ast.literal_eval(node.value) for node in parse("tracing.py").body
                  if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "SPAN_TARGETS"]
    missing = {(name, attr) for name, attr, _ in targets if not hasattr(module(name), attr)}
    assert missing == ABSENT_SPAN_TARGETS
