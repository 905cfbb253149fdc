"""Package modules share helpers only through public names: no module under
src/neuriso imports an underscore name from another neuriso module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "neuriso"


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
