"""Every public name and method is reached from the command line or has a stated reason to stay.

The walk parses the modules of `weilsums` without importing them.  It starts
from every name that `cli.py` references and follows the names referenced in
the body of each top-level definition (function, class or assignment) of any
module.  Reaching a class reaches its bases, decorators, class-level
statements and dunder methods, but not its other methods: a method `C.m` is
reached only where some reached body references the attribute `.m` (a bare
name `m`, such as a local variable, reaches only a top-level `m`).  A name
exported by `__init__.py`, or a method, that the walk never meets is a helper
no command reaches: delete it, or add it to ALLOWED with its reason.
"""

import ast
import pathlib

import weilsums

SRC = pathlib.Path(weilsums.__file__).parent

# public names and methods kept although no command reaches them yet
ALLOWED = {
    # the certified Kloosterman maximum (ROADMAP "Certified worst case over all
    # coefficients") will check it
    "kloosterman_bound",
    # the Q_3 soft suite (ROADMAP "Exact data in the paper's regime") will check it
    "q3_bound",
    # the suite that walks the paper's induction (ROADMAP "The paper's induction
    # at its own orders") runs on it
    "induction_trace",
    # the window-checked form of the value the theorem suite reads from
    # _theorem_value, whose cells _cells has already checked
    "theorem_bound",
    # acceptance criterion 6 checks the histogram identities on it
    "j_histogram",
    # acceptance criterion 6 checks that the histogram's mass is tau^k
    "PowerVectorHistogram.mass",
    # the scalar f(x) mod p that the sums tests compare the array engine against
    "SparsePolynomial.evaluate",
    # the dilation-invariance property of subgroup sums, S(G; f(h*X)) = S(G; f)
    # for h in G, runs on it
    "SparsePolynomial.dilate",
    # the tests' independent Python enumeration of a subgroup
    "SubgroupSpec.elements",
    # the public tuple view of a sequence (None at excluded terms) that the tests read
    "GeneratorSequence.residues",
}


def _referenced(node) -> set:
    """Bare names used anywhere under node, and attribute names as ".attr"."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add("." + sub.attr)
    return out


def _is_method(stmt) -> bool:
    return isinstance(stmt, ast.FunctionDef) and not (stmt.name.startswith("__") and stmt.name.endswith("__"))


def _definitions() -> dict:
    """Definition -> names its body references, over every module but __init__.

    Definitions are top-level names and the non-dunder methods C.m of
    top-level classes; a class's own entry leaves those methods out.
    """
    defs: dict = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                rest = stmt.bases + stmt.keywords + stmt.decorator_list
                for sub in stmt.body:
                    if _is_method(sub):
                        defs.setdefault(f"{stmt.name}.{sub.name}", set()).update(_referenced(sub))
                    else:
                        rest.append(sub)
                defs.setdefault(stmt.name, set()).update(*map(_referenced, rest))
                continue
            if isinstance(stmt, ast.FunctionDef):
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
    """Definitions reached from cli.py and from the allowed definitions."""
    defs = _definitions()
    # a bare name reaches the top-level definition of that name, and an attribute
    # ".m" reaches it and every method m
    by_name: dict = {}
    for key in defs:
        cls, _, name = key.rpartition(".")
        if not cls:
            by_name.setdefault(name, []).append(key)
        by_name.setdefault("." + name, []).append(key)
    cli_names = _referenced(ast.parse((SRC / "cli.py").read_text()))
    todo = [key for name in cli_names for key in by_name.get(name, ())] + list(allowed)
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(k for name in defs[key] for k in by_name.get(name, ()))
    return seen


def test_every_export_is_reached():
    assert sorted(_exports() - _reached(ALLOWED)) == []


def test_every_method_is_reached():
    methods = {key for key in _definitions() if "." in key}
    assert sorted(methods - _reached(ALLOWED)) == []


def test_allowlist_is_needed():
    # each allowed name is an export or a method that the command line does not reach on its own
    defs = _definitions()
    for name in ALLOWED:
        assert name in defs and (name in _exports() or "." in name), name
        assert name not in _reached(ALLOWED - {name}), name


def test_cli_reaches_no_splitting_field():
    # field.roots_of_unity and the irreducible polynomials behind it are the tests'
    # reference for curves.delta_eval, which takes its products over F_p
    reference = {"roots_of_unity", "_least_irreducible", "_is_irreducible"}
    assert reference <= set(_definitions())
    assert sorted(reference & _reached(set())) == []
