"""Which private names of frkit.solver the tests may patch.

A test that patches a private helper breaks whenever the helper is
rewritten, so the solver's tests read its record (the solution's attempts)
or drive its generators (_pdhg, _polish) instead. Patching stays allowed
where it substitutes behaviour: _largest_violator -> None turns growth off,
and a refusing _hermitian_full checks that a sweep never rebuilds a spectrum.
"""

import ast
import pathlib

PATCHABLE = {"_largest_violator", "_hermitian_full"}
TESTS = pathlib.Path(__file__).parent


def _patched_solver_privates(source: str) -> list[tuple[str, int]]:
    """(name, line) of every setattr call in source whose target is a private frkit.solver name.

    The target is either a dotted string ("frkit.solver._name") or a name
    bound to frkit.solver by an import, with the attribute as a string.
    """
    tree = ast.parse(source)
    modules = {"frkit.solver"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == "frkit.solver" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "frkit":
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "solver"}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr" and node.args):
            continue
        target, *rest = node.args
        if isinstance(target, ast.Constant) and isinstance(target.value, str):
            module, _, name = target.value.rpartition(".")
        elif rest and isinstance(rest[0], ast.Constant) and isinstance(rest[0].value, str):
            module, name = ast.unparse(target), rest[0].value
        else:
            continue
        if module in modules and name.startswith("_"):
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_tests_patch_only_the_allowed_solver_privates():
    patched = {}
    for path in sorted(TESTS.glob("**/*.py")):
        for name, line in _patched_solver_privates(path.read_text()):
            patched.setdefault(name, []).append(f"{path.name}:{line}")
    assert set(patched) <= PATCHABLE, patched


def test_every_patch_form_is_seen():
    source = '''
import frkit.solver
import frkit.solver as core
from frkit import solver
from frkit import solver as sol
import other as solver_like

def test(monkeypatch):
    monkeypatch.setattr(solver, "_polish", None)
    monkeypatch.setattr(frkit.solver, "_certify", None)
    monkeypatch.setattr(core, "_support_point", None)
    monkeypatch.setattr("frkit.solver._pdhg", None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sol, "_unit_forwards", None)
    monkeypatch.setattr(solver, "solve_bpdn", None)
    monkeypatch.setattr("frkit.torus._grid", None)
    monkeypatch.setattr(solver_like, "_private", None)
'''
    assert _patched_solver_privates(source) == [
        ("_polish", 9), ("_certify", 10), ("_support_point", 11), ("_pdhg", 12),
        ("_unit_forwards", 14),
    ]
