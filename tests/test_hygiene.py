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


SHARED_ARITHMETIC = {
    "_check", "__add__", "__sub__", "__neg__", "scale", "__mul__",
    "substitute", "shift", "delta", "partial", "compose_linear",
}


def test_polynomial_arithmetic_defined_once_on_the_base():
    # one sparse arithmetic for F_p and Q: a ring class only builds its own
    # polynomials (the _new hook), so a second copy of an operation that
    # drifts from the first cannot come back
    from spherefp.fpoly import FpMultiPoly, RatMultiPoly, _PolyBase

    tree = ast.parse((SRC / "fpoly.py").read_text())
    where = {}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name in SHARED_ARITHMETIC:
                where.setdefault(node.name, []).append(cls.name)
    assert where == {name: ["_PolyBase"] for name in SHARED_ARITHMETIC}
    for cls in (FpMultiPoly, RatMultiPoly):
        stray = [n for n in SHARED_ARITHMETIC if getattr(cls, n) is not getattr(_PolyBase, n)]
        assert stray == [], f"{cls.__name__} does not use the shared {stray}"


F_P_ELIMINATION = {"rref", "rank", "solve_linear", "nullspace", "matrix_inverse"}


def test_one_f_p_eliminator_in_ffcore():
    # one pivot rule for every linear system over F_p: a second eliminator
    # (such as a vectorized numpy copy of rref) can drift from the first
    where = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in F_P_ELIMINATION | {"_solve_mod_numpy"}:
                where.setdefault(node.name, []).append(path.name)
    assert where == {name: ["ffcore.py"] for name in F_P_ELIMINATION}
