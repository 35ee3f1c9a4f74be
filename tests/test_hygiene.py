"""Source-tree rules that no other test exercises."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spherefp"


def test_no_assert_statements_in_library():
    # python -O strips assert, so library checks must raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")), f"no modules found under {SRC}"
    assert found == [], f"assert statements in src/spherefp: {found}"


def test_each_class_defined_in_one_module():
    # one exception hierarchy: a class name defined twice is two classes that
    # an except clause naming one of them does not both catch
    where = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                where.setdefault(node.name, set()).add(path.name)
    twice = {name: sorted(mods) for name, mods in where.items() if len(mods) > 1}
    assert twice == {}, f"classes defined in more than one module: {twice}"
