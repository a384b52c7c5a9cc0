"""The benchmark's use of the package, checked without running the benchmark.

perfbench/ imports names from magnon_blockade and reads module attributes;
its own smoke test runs only when the benchmark does, so a renamed or
removed name is caught here, from the benchmark's source parsed with ast.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "magnon_blockade"


def package_references():
    """(file, module, name) for every package name a perfbench module imports,
    or reads as an attribute of the imported package; name is None for a
    bare module import."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == PACKAGE)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == PACKAGE):
                yield path.name, PACKAGE, node.attr


def test_every_package_name_the_benchmark_uses_resolves():
    refs = list(package_references())
    files = {file for file, _, _ in refs}
    assert {"oracle.py", "workloads.py", "worker.py"} <= files
    missing = [f"{file}: {module}.{name}" for file, module, name in refs
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert missing == []
