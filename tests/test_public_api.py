"""Every public part of beamlab is reached by the package or by perfbench
(its own tests left out): a part that only tests reach is a code path no run
takes. Four checks over the syntax trees of those files, all by name:

  * every public top-level function and class is referenced; a
    definition's own body does not count as a use of its name;
  * R1: every default of a public function, and every field default of a
    public package dataclass, is relied on by at least one call that leaves
    its argument out;
  * R2: no parameter of a public function gets one literal value, passed or
    by default, from every call;
  * R3: every public field, property and method of a package class is read
    as an attribute somewhere. The fields of classes serialized whole with
    `asdict` count as read.

`f(...)` and `x.f(...)` are calls of the public function f, unless the
calling module defines an f of its own. A function that is also passed
around as a value, or called with *args or **kwargs, has calls the check
cannot see, so R1 and R2 skip it. A dataclass is called by its class name;
a constructor call with *args or **kwargs passes only the fields it names
itself (or passes before the first *args). A name that another name shadows
(an attribute or a local of the same name) passes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beamlab"
PATHS = sorted(PACKAGE.glob("*.py")) + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PATHS}

ALLOWED = {
    # Acceptance criterion 9 (test_acceptance.py) runs the paper's scheme
    # comparison through it; no command exposes it yet.
    "sched.compare_schemes",
    # Only tests take the trained state; ROADMAP item 10 (`train
    # --checkpoint`) gives it a production caller.
    "sched.run_training.return_state",
}
# Classes whose every field is read by dataclasses.asdict: manifest records
# (save_manifest), Report.to_dict and the Report's config echo, with its
# array (MicArray.preset is read nowhere else).
SERIALIZED = {"Utterance", "Report", "ScheduleConfig", "MicArray"}


def _references(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _public_functions() -> dict:
    """name -> (qualified name, FunctionDef) of every public top-level package function."""
    return {stmt.name: (f"{path.stem}.{stmt.name}", stmt)
            for path, tree in TREES.items() if path.parent == PACKAGE
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}


def _calls(functions: dict) -> tuple[dict, set]:
    """(name -> the Call nodes of each public function, names whose calls cannot all be seen)."""
    calls = {name: [] for name in functions}
    opaque = set()
    for path, tree in TREES.items():
        own = set() if path.parent == PACKAGE else {
            stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in calls and name not in own:
                    calls[name].append(node)
                    if any(isinstance(a, ast.Starred) for a in node.args) or any(
                            k.arg is None for k in node.keywords):
                        opaque.add(name)
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if (isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees
                    and name in calls and name not in own):
                opaque.add(name)
    return calls, opaque


def _bound(fn: ast.FunctionDef, call: ast.Call) -> dict:
    """Parameter name -> the argument expression the call passes for it."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    bound = dict(zip(positional, call.args))
    bound.update((k.arg, k.value) for k in call.keywords)
    return bound


def _defaults(fn: ast.FunctionDef) -> dict:
    """Parameter name -> default expression, for the parameters that have one."""
    positional = fn.args.posonlyargs + fn.args.args
    out = {a.arg: d for a, d in zip(positional[len(positional) - len(fn.args.defaults):],
                                    fn.args.defaults)}
    out.update((a.arg, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None)
    return out


def _literal(node):
    """repr of the literal value of node (a type-strict key), or None if it is no literal."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _call_findings():
    """(R1 findings, R2 findings), each a list of "module.function.parameter"."""
    functions = _public_functions()
    calls, opaque = _calls(functions)
    unrelied, constant = [], []
    for name, (qualified, fn) in functions.items():
        if not calls[name] or name in opaque:
            continue
        bindings = [_bound(fn, call) for call in calls[name]]
        defaults = _defaults(fn)
        for param in defaults:
            if all(param in bound for bound in bindings):
                unrelied.append(f"{qualified}.{param}")
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            values = {_literal(bound.get(arg.arg, defaults.get(arg.arg))) for bound in bindings}
            if len(values) == 1 and None not in values:
                constant.append(f"{qualified}.{arg.arg}")
    return sorted(unrelied), sorted(constant)


def _dataclasses() -> dict:
    """name -> (qualified name, ClassDef) of every public package dataclass."""
    return {cls.name: (f"{path.stem}.{cls.name}", cls)
            for path, tree in TREES.items() if path.parent == PACKAGE
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            and any("dataclass" in _references(d) for d in cls.decorator_list)}


def _field_findings():
    """"module.Class.field" of each dataclass field default that every constructor call passes."""
    classes = _dataclasses()
    calls = _calls(classes)[0]
    unrelied = []
    for name, (qualified, cls) in classes.items():
        fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
        passed = []  # per call, the names of the fields it certainly passes
        for call in calls[name]:
            starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
            positional = fields[:starred[0] if starred else len(call.args)]
            passed.append({stmt.target.id for stmt in positional}
                          | {k.arg for k in call.keywords})
        unrelied += [f"{qualified}.{stmt.target.id}" for stmt in fields
                     if stmt.value is not None and passed
                     and all(stmt.target.id in names for names in passed)]
    return sorted(unrelied)


def _definitions() -> list:
    """(file, statement) of each public top-level package function and class."""
    return [(path, stmt) for path, tree in TREES.items() if path.parent == PACKAGE
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")]


def _name_findings():
    """"module.name" of each public top-level function and class nothing references."""
    # A definition's own body does not count as a use of its name.
    used = set()
    for tree in TREES.values():
        for stmt in tree.body:
            used |= _references(stmt) - {getattr(stmt, "name", None)}
    return sorted(f"{path.stem}.{stmt.name}" for path, stmt in _definitions()
                  if stmt.name not in used)


def _member_findings():
    """"module.Class.member" of each public class member no production code reads."""
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in TREES.items():
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and cls.name not in SERIALIZED:
                    member = stmt.target.id
                elif isinstance(stmt, ast.FunctionDef):
                    member = stmt.name
                else:
                    continue
                if not member.startswith("_") and member not in read:
                    unread.append(f"{path.stem}.{cls.name}.{member}")
    return sorted(unread)


def _check(findings, what: str) -> None:
    flagged = [name for name in findings if name not in ALLOWED]
    assert not flagged, f"{what}: {flagged}"


def test_no_public_name_is_test_only():
    _check(_name_findings(), "public but used only by tests")


def test_every_default_is_relied_on():
    _check(_call_findings()[0] + _field_findings(),
           "defaults that every production call overrides (R1)")


def test_no_parameter_is_always_one_literal():
    _check(_call_findings()[1], "parameters every production call sets to one literal (R2)")


def test_every_class_member_is_read():
    _check(_member_findings(), "class members no production code reads (R3)")


def test_allowed_entries_are_still_found():
    # An entry whose finding is gone must leave ALLOWED with it.
    found = set(_name_findings() + _member_findings() + _field_findings()).union(
        *_call_findings())
    stale = sorted(ALLOWED - found)
    assert not stale, f"ALLOWED entries nothing flags any more: {stale}"


if __name__ == "__main__":
    # The counts ROADMAP aim 2 tracks, from the scanners above; CI writes them
    # to its job summary.
    defaults = sum(len(_defaults(fn)) for _, fn in _public_functions().values())
    fields = sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                 for _, cls in _dataclasses().values() for stmt in cls.body)
    print(f"\npublic-function parameters with defaults (top-level, src/beamlab): {defaults}")
    print(f"\ndataclass field defaults (public package classes, src/beamlab): {fields}")
    print(f"\npublic top-level functions and classes (src/beamlab): {len(_definitions())}")
