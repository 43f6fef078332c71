"""The package's modules form layers: each imports only from earlier ones."""

import ast
import importlib.util
import sys
from pathlib import Path

import invsl

# Lowest layer first; `__init__` re-exports from all of them.
ORDER = ["errors", "trig", "types", "ode", "moments", "forward", "reconstruct",
         "halfinverse", "problems", "serialize", "schemas", "cli", "__init__"]
SRC = Path(invsl.__file__).parent


def _relative_imports(tree):
    """(imported module, import node) for every relative import of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module, node
            else:
                # `from . import name`: the package's version string or a module
                yield from ((alias.name, node) for alias in node.names
                            if alias.name != "__version__")


def _absolute_imports(node):
    """The modules an import node names, unless it is relative."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def _trees():
    return {name: ast.parse((SRC / f"{name}.py").read_text()) for name in ORDER}


def test_imports_only_from_lower_layers():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted(ORDER)
    wrong = [f"{name}.py line {node.lineno} imports {imported}"
             for name, tree in _trees().items()
             for imported, node in _relative_imports(tree)
             if imported not in ORDER[:ORDER.index(name)]]
    assert not wrong, "imports from the same or a higher layer: " + "; ".join(wrong)


def test_no_import_inside_a_function():
    inside = [f"{name}.py line {node.lineno} ({func.name}) imports {imported}"
              for name, tree in _trees().items()
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for imported, node in _relative_imports(func)]
    assert not inside, "relative imports inside functions: " + "; ".join(inside)


def test_runtime_dependencies_are_numpy_and_jsonschema():
    # tests may use scipy, mpmath and hypothesis; the package may not
    allowed = {"numpy", "jsonschema"} | set(sys.stdlib_module_names)
    wrong = [f"{name}.py line {node.lineno} imports {module}"
             for name, tree in _trees().items()
             for node in ast.walk(tree)
             for module in _absolute_imports(node)
             if module.partition(".")[0] not in allowed]
    assert not wrong, "imports outside numpy, jsonschema and the standard library: " + "; ".join(wrong)


def test_unused_imports_are_the_benchmarks_lookup_sites():
    # an import kept only for bench/spans.py to wrap names one of its SITES,
    # so that retiring those sites finds every such import
    spans_path = SRC.parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = {(module, attribute) for module, attribute, _ in spans.SITES}
    wrong = []
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        lines = (SRC / f"{name}.py").read_text().splitlines()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.lineno - 1]):
                wrong += [f"{name}.py line {node.lineno} imports {alias.name}"
                          for alias in node.names
                          if (f"invsl.{name}", alias.asname or alias.name) not in sites]
    assert not wrong, "unused imports that bench/spans.py does not wrap: " + "; ".join(wrong)
