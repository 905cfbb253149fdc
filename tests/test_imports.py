"""Package hygiene: modules share helpers only through public names, every
public name has a user outside the tests, and importing the package loads
numpy but not scipy."""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "neuriso"
ROOT = SRC.parents[1]


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "neuriso":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield "%s:%d imports %s" % (path.name, node.lineno, alias.name)


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules, "no package modules found under %s" % SRC
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "; ".join(found)


def _public_defs(path):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(path):
    # names a file reads: loaded names and attributes, and imported aliases;
    # an assignment target is not a use, so a definition does not reference
    # itself
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_an_assignment_is_not_a_use(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("UNUSED = 1\nREAD = 2\nobj.attr = READ\n")
    assert _references(path) == {"READ", "obj"}


def test_every_public_name_has_a_user_outside_the_tests():
    # a public top-level name must be referenced by package code, by the
    # benchmark, or by the console entry point, or be documented in the
    # README as module.name
    modules = sorted(SRC.glob("*.py"))
    users = set()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        users |= _references(path)
    users |= set(re.findall(r'"neuriso\.\w+:(\w+)"',
                            (ROOT / "pyproject.toml").read_text()))
    readme = (ROOT / "README.md").read_text()
    unused = ["%s.%s" % (path.stem, name) for path in modules
              for name in _public_defs(path)
              if name not in users
              and not re.search(r"\b%s\.%s\b" % (path.stem, name), readme)]
    assert not unused, "only tests use: " + ", ".join(unused)


# Run in a fresh interpreter: every cone-free path must leave scipy unloaded,
# and the cone programs, which load it where they run, must still solve.
SCIPY_FREE = """
import importlib, pkgutil, sys
import neuriso
from neuriso import cli, experiments as ex, solvers as sol

def scipy_loaded():  # the count and the first few names
    found = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return len(found), found[:3]

for mod in pkgutil.iter_modules(neuriso.__path__):
    if mod.name != "__main__":  # running it runs the command line
        importlib.import_module("neuriso." + mod.name)
assert not scipy_loaded()[0], ("import", scipy_loaded())
assert cli.dispatch(["theory", "theta-star"]) == 0
ex.run_grid(ex.GridConfig(d_values=(3,), n_values=(6, 9), trials=1, pattern_count=20))
ex.run_beta_sweep(ex.GridConfig(d_values=(3,), n_values=(9,), trials=1,
                                program="reg_grelu_skip", betas=(0.0, 0.1)))
gated = ex.GridConfig(d_values=(3,), n_values=(15,), trials=1, plant="relu",
                      program="grelu_skip", pattern_count=20)
inst = ex.build_cell(gated, 3, 15, 0.0, 0)
sol.build_certificate(inst.x, inst.patterns, inst.model.neurons, kind="relu")
prob, s, _ = ex.solve_program(gated, inst, 0.0)
assert sol.verify_kkt(prob, s, tol=1e-6).ok
assert not scipy_loaded()[0], ("cone-free paths", scipy_loaded())

cone = ex.GridConfig(d_values=(3,), n_values=(15,), trials=1, plant="relu",
                     program="relu_skip_cone", pattern_count=20)
prob, s, _ = ex.solve_program(cone, inst, 0.0)
# the solve loads scipy's LAPACK extension alone, not the scipy.linalg package
assert s.converged and "scipy.linalg" not in sys.modules, scipy_loaded()
assert scipy_loaded() == (1, ["scipy.linalg._flapack"]), ("cone solve", scipy_loaded())
assert sol.verify_kkt(prob, s, tol=1e-6).ok  # nnls may load scipy.optimize
print("ok", scipy_loaded()[0])
"""


def test_scipy_loads_only_with_the_cone_programs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", SCIPY_FREE], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2] == "ok" and int(out.stdout.split()[-1]) > 0, out.stdout
