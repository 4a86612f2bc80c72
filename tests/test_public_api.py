"""Every public top-level function and class of beamlab is used by the package
or by perfbench: a public name that only tests call is a code path no run
takes. The check is by name, so a name that another name shadows (an
attribute or a local of the same name) passes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beamlab"

# Acceptance criterion 9 (test_acceptance.py) runs the paper's scheme
# comparison through it; no command exposes it yet.
ALLOWED = {"sched.compare_schemes"}


def _references(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_no_public_name_is_test_only():
    # (file, top-level statement) pairs, perfbench's own tests left out; a
    # definition's own body does not count as a use of its name.
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_"))
    statements = [(path, stmt) for path in paths
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    used = set()
    for _, stmt in statements:
        used |= _references(stmt) - {getattr(stmt, "name", None)}
    unused = sorted(
        f"{path.stem}.{stmt.name}"
        for path, stmt in statements
        if path.parent == PACKAGE
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in used
    )
    test_only = [name for name in unused if name not in ALLOWED]
    assert not test_only, f"public but used only by tests: {test_only}"
