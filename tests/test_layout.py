"""The package's module layering, read from the source with ``ast``.

``nesting`` is the Good-Thomas machinery both reduced engines share, so it
sits below them; the engines reach it through its public names and never
through each other; tools that only verification uses live there.
"""

import ast
from pathlib import Path

import pytest

import primeconv
from primeconv import core, fast, verification

PACKAGE = Path(primeconv.__file__).parent
VERIFICATION_TOOLS = ("ConvolutionTrace", "block_plan", "reverse_permute", "trace_convolution")


def imports(module: str) -> list:
    """(source, name) for each ``from source import name`` in ``module``,
    with the package's own modules named without the ``primeconv.`` prefix."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.startswith("primeconv."):
                source = source.removeprefix("primeconv.")
            found += [(source or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.removeprefix("primeconv."), alias.name) for alias in node.names]
    return found


def package_modules(module: str) -> set:
    return {source for source, _ in imports(module) if (PACKAGE / f"{source}.py").exists()}


def test_nesting_imports_only_core_and_counting():
    assert package_modules("nesting") <= {"core", "counting"}


@pytest.mark.parametrize("module, other", [("fast", "polycrt"), ("polycrt", "fast")])
def test_engines_import_nesting_and_not_each_other(module, other):
    assert "nesting" in package_modules(module)
    assert other not in package_modules(module)


@pytest.mark.parametrize("module", ["fast", "polycrt", "transforms"])
def test_no_private_name_is_imported(module):
    assert [name for _, name in imports(module) if name.startswith("_")] == []


def test_public_names_resolve_and_exclude_verification_tools():
    assert [name for name in primeconv.__all__ if not hasattr(primeconv, name)] == []
    for name in VERIFICATION_TOOLS:
        assert name not in primeconv.__all__
        assert not hasattr(fast, name) and not hasattr(core, name), name
        assert hasattr(verification, name), name
