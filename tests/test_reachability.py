"""Every public name is reached from the command line or has a stated reason to stay.

The walk parses the modules of `weilsums` without importing them.  It starts
from every name that `cli.py` references and follows the names referenced in
the body of each top-level definition (function, class or assignment) of any
module.  A name exported by `__init__.py` that the walk never meets is a
helper no command reaches: delete it, or add it to ALLOWED with its reason.
"""

import ast
import pathlib

import weilsums

SRC = pathlib.Path(weilsums.__file__).parent

# public names kept although no command reaches them yet
ALLOWED = {
    # the certified Kloosterman maximum (ROADMAP item 1) will check it
    "kloosterman_bound",
    # the Q_3 soft suite (ROADMAP item 2) will check it
    "q3_bound",
    # the suite that walks the paper's induction (ROADMAP item 2) runs on it
    "induction_trace",
    # acceptance criterion 6 checks the histogram identities on it
    "j_histogram",
}


def _referenced(node) -> set:
    """Names and attribute names used anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _definitions() -> dict:
    """Top-level name -> names referenced by its definitions, over every module but __init__."""
    defs: dict = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, set()).update(_referenced(stmt))
    return defs


def _exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for stmt in tree.body if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}


def _reached(allowed) -> set:
    defs = _definitions()
    todo = list(_referenced(ast.parse((SRC / "cli.py").read_text())) | set(allowed))
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(defs.get(name, ()))
    return seen


def test_every_export_is_reached():
    assert sorted(_exports() - _reached(ALLOWED)) == []


def test_allowlist_is_needed():
    # each allowed name is a defined export that the command line does not reach on its own
    defs = _definitions()
    for name in ALLOWED:
        assert name in _exports() and name in defs
        assert name not in _reached(ALLOWED - {name}), name
