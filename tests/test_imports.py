"""Package hygiene: modules share helpers only through public names, and
every public name has a user outside the tests."""

import ast
import pathlib
import re

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
