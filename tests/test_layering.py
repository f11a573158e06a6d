"""The production package must not depend on the test oracles.

Equivalence oracles live under ``tests/oracles`` so that no production code
path can select them; this walks every module of ``src/repro`` and fails on
any import of ``oracles`` or ``tests``.
"""

import ast
from pathlib import Path

import repro

FORBIDDEN_ROOTS = {"oracles", "tests"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_src_never_imports_oracles_or_tests():
    package_root = Path(repro.__file__).parent
    modules = sorted(package_root.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(package_root.parent)} imports {root}"
        for path in modules
        for root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root in FORBIDDEN_ROOTS
    ]
    assert not offenders, offenders
