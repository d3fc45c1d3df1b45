"""Which private names of frkit.solver and frkit.cli the tests may patch.

A test that patches a private helper breaks whenever the helper is
rewritten, so the solver's tests read its record (the solution's attempts)
or drive its generators (_pdhg, _polish) instead. Patching stays allowed
where it substitutes behaviour: _largest_violator -> None turns growth off,
and a refusing _hermitian_full checks that a sweep never rebuilds a spectrum.
The CLI's tests patch no private name: its trials run through the public
solver.trial, which the sweep worker tests patch instead.

The library has one integer rule, sampling.check_integer, so no other
function of src/frkit calls sampling.is_integer to check an argument itself.
"""

import ast
import pathlib

import frkit

PATCHABLE = {"frkit.solver": {"_largest_violator", "_hermitian_full"}, "frkit.cli": set()}
TESTS = pathlib.Path(__file__).parent


def _patched_privates(source: str, module: str) -> list[tuple[str, int]]:
    """(name, line) of every setattr call in source whose target is a private name of module.

    module is a dotted frkit module ("frkit.solver"). The target is either a
    dotted string ("frkit.solver._name") or a name bound to the module by an
    import, with the attribute as a string.
    """
    tree = ast.parse(source)
    package, _, leaf = module.rpartition(".")
    modules = {module}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == module and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == package:
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == leaf}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr" and node.args):
            continue
        target, *rest = node.args
        if isinstance(target, ast.Constant) and isinstance(target.value, str):
            owner, _, name = target.value.rpartition(".")
        elif rest and isinstance(rest[0], ast.Constant) and isinstance(rest[0].value, str):
            owner, name = ast.unparse(target), rest[0].value
        else:
            continue
        if owner in modules and name.startswith("_"):
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def _patched(module: str) -> dict[str, list[str]]:
    """Each private name of module that a test file patches, with its file:line places."""
    patched = {}
    for path in sorted(TESTS.glob("**/*.py")):
        for name, line in _patched_privates(path.read_text(), module):
            patched.setdefault(name, []).append(f"{path.name}:{line}")
    return patched


def test_tests_patch_only_the_allowed_solver_privates():
    patched = _patched("frkit.solver")
    assert set(patched) <= PATCHABLE["frkit.solver"], patched


def test_tests_patch_only_the_allowed_cli_privates():
    patched = _patched("frkit.cli")
    assert set(patched) <= PATCHABLE["frkit.cli"], patched


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
    assert _patched_privates(source, "frkit.solver") == [
        ("_polish", 9), ("_certify", 10), ("_support_point", 11), ("_pdhg", 12),
        ("_unit_forwards", 14),
    ]


def test_every_cli_patch_form_is_seen():
    source = '''
import frkit.cli
import frkit.cli as front
from frkit import cli
from frkit import cli as command_line
from frkit import solver

def test(monkeypatch):
    monkeypatch.setattr(cli, "_recover_one", None)
    monkeypatch.setattr(frkit.cli, "_emit", None)
    monkeypatch.setattr(front, "_fork_map", None)
    monkeypatch.setattr("frkit.cli._trial_row", None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(command_line, "_targets", None)
    monkeypatch.setattr(cli, "main", None)
    monkeypatch.setattr(solver, "_polish", None)
    monkeypatch.setattr("frkit.solver._pdhg", None)
'''
    assert _patched_privates(source, "frkit.cli") == [
        ("_recover_one", 9), ("_emit", 10), ("_fork_map", 11), ("_trial_row", 12),
        ("_targets", 14),
    ]


def _is_integer_callers(source: str) -> list[str]:
    """The enclosing function ("<module>" outside one) of each call to is_integer in source.

    A call counts by its name alone, is_integer(...) or x.is_integer(...),
    so float.is_integer counts too.
    """
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "is_integer":
                    callers.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_only_check_integer_calls_is_integer():
    package = pathlib.Path(frkit.__file__).parent
    callers = {f"{path.name}:{owner}" for path in sorted(package.glob("*.py"))
               for owner in _is_integer_callers(path.read_text())}
    assert callers == {"sampling.py:check_integer"}, callers


def test_every_is_integer_call_is_seen():
    source = '''
def check_integer(value):
    return is_integer(value)

def other(value):
    def inner():
        return sampling.is_integer(value)
    return inner() or (2.0).is_integer()

flag = is_integer(3)
'''
    assert _is_integer_callers(source) == ["check_integer", "inner", "other", "<module>"]
