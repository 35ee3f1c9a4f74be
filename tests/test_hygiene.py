"""Source-tree rules that no other test exercises."""

import ast
import pathlib
import re

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


def test_one_grid_identity_checker_in_fpoly():
    # certificates are re-verified by one exact evaluation on the simplex
    # grid; a second copy (or a return to Fraction products) could drift
    where = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in {"_simplex_grid_sum", "_grid_powers"}:
                where.setdefault(node.name, []).append(path.name)
    assert where == {"_simplex_grid_sum": ["fpoly.py"], "_grid_powers": ["fpoly.py"]}


def test_one_binomial_residue_table_in_equidist():
    # equidist's phases and Weyl residues come from one integer table; a
    # second evaluator (or a return to Fraction evaluation) could drift
    names = {"_binomial_residue_table", "_phase_values", "_mod_p_residues", "seq_eval"}
    where = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                where.setdefault(node.name, []).append(path.name)
    assert where == {"_binomial_residue_table": ["equidist.py"]}
    tree = ast.parse((SRC / "equidist.py").read_text())
    evaluations = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "evaluate"
    ]
    assert evaluations == []


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node, methods too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(child, ast.FunctionDef):
                yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def _calls(node, name):
    """The calls under node of a function or method called name."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield call


def test_v_p_base_points_come_from_one_enumerator():
    # V_p(M) base points are ZpQuadForm.sphere_points' int64 rows in lex
    # order: a second enumeration of M.induced() or a re-sort of omega
    # would bring back a second point-set format beside it
    where = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _functions(tree):
            for call in _calls(fn, "enumerate_zeros"):
                if [c for arg in call.args for c in _calls(arg, "induced")]:
                    where.add(f"{path.name}:{name}")
    assert where == {"division.py:ZpQuadForm.sphere_points"}
    tree = ast.parse((SRC / "fpoly.py").read_text())
    witness = [fn for name, fn in _functions(tree) if name == "partial_periodicity_witness"]
    assert len(witness) == 1 and list(_calls(witness[0], "sorted")) == []


def test_box_s_candidates_come_from_the_zero_set_rows():
    # the Box_s walk reads its shifted sets off the rows of V(M) (n V + c),
    # and V(M) n V(M(. + h)) is a slice V(M) n L_h counted in closed form;
    # a p^d value grid rolled or looked up beside them would be a second
    # corner path, and the square-value count, the grid's last caller, sums
    # closed-form zero counts, so no p^d grid is left
    calls, rolls, grid_zeros = 0, [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += len(list(_calls(tree, "grid_values")))
        rolls += [f"{path.name}:{call.lineno}" for call in _calls(tree, "roll")]
        for name, fn in _functions(tree):
            if fn.name in ("_grid_zeros", "grid_values"):
                grid_zeros.append(f"{path.name}:{name}")
    assert calls == 0 and rolls == [] and grid_zeros == []


def test_zero_sets_come_from_the_line_solver_alone(monkeypatch):
    # V(M) and V(M) n (V + c) are both solved line by line by
    # counting._solve_zeros, the slice on the form pulled back to the
    # parameters of V + c: no point list of V + c filtered by eval_array
    # beside it, and one Box_s row builder (enumerate_mset), so gowers_set
    # only counts
    from spherefp import counting
    from spherefp.ffcore import PrimeField
    from spherefp.quadform import AffineSubspace, QuadForm

    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert "subspace_points" not in text and "count_only" not in text
    tree = ast.parse((SRC / "counting.py").read_text())
    enum = [fn for name, fn in _functions(tree) if name == "enumerate_zeros"]
    assert len(enum) == 1 and list(_calls(enum[0], "eval_array")) == []
    solved = []
    solve = counting._solve_zeros
    monkeypatch.setattr(counting, "_solve_zeros", lambda M: solved.append(M.d) or solve(M))
    field = PrimeField(5)
    M = QuadForm.dot_form(field, 3, 1)
    counting.enumerate_zeros(M)
    counting.enumerate_zeros(M, AffineSubspace(field, [[1, 0, 0], [0, 1, 1]], [0, 1, 0]))
    assert solved == [3, 2]


def test_gowers_set_counts_without_the_walk_or_the_row_builder(monkeypatch):
    # |Box_s| is counted from the zero set's rows and their pair products:
    # neither the lexicographic walk (gowers_blocks, sorted candidates) nor
    # the M-set row builder runs
    from conftest import box_count
    from spherefp import counting, msets
    from spherefp.ffcore import PrimeField
    from spherefp.quadform import AffineSubspace, QuadForm

    def never(*args, **kwargs):
        raise AssertionError("gowers_set walked or built Box_s rows")

    field = PrimeField(5)
    M = QuadForm.dot_form(field, 3, 1)
    plane = AffineSubspace(field, [[1, 0, 0], [0, 1, 1]], [0, 1, 0])
    want = [box_count(M, s, S) for s in range(4) for S in (None, plane)]
    monkeypatch.setattr(counting, "gowers_blocks", never)
    monkeypatch.setattr(msets, "enumerate_mset", never)
    assert [counting.gowers_set(M, s, S) for s in range(4) for S in (None, plane)] == want
    assert want[:6:2] == [30, 900, 7650]


def test_counts_to_box_2_enumerate_nothing(monkeypatch):
    # |V(M) n (V + c)|, the square-value count and Box_s for s <= 2 are
    # closed forms: neither the line solver nor the walk runs, on F_p^d, on
    # a slice or on a point; the walk and its pair products serve s >= 3
    from conftest import box_count
    from spherefp import counting
    from spherefp.ffcore import PrimeField
    from spherefp.quadform import AffineSubspace, QuadForm

    def never(*args, **kwargs):
        raise AssertionError("a closed-form count enumerated")

    field = PrimeField(5)
    M = QuadForm.dot_form(field, 4, 1)
    subspaces = [
        None,
        AffineSubspace(field, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 3]], [0, 1, 0, 2]),
        AffineSubspace(field, [], [1, 0, 0, 0]),
    ]
    want = [box_count(M, s, S) for s in range(3) for S in subspaces]
    for name in ("_solve_zeros", "_walk", "_pair_zeros", "gowers_blocks"):
        monkeypatch.setattr(counting, name, never)
    assert [counting.gowers_set(M, s, S) for s in range(3) for S in subspaces] == want
    assert counting.zero_count_check(M, subspaces[1]).exact == want[1]
    assert counting.quadratic_root_count(M).exact == 385  # by eval_array on all 625 points


def test_box_s_has_one_walk_one_scan_and_one_budget_rule():
    # one explicit-stack walk of Box_s (counting._walk) serves the
    # lexicographic blocks and the count; one scan (division._first_cube)
    # serves both witness searches; and the s = 1 cube equation is checked
    # by Box_1's own rule, not by a second budget beside it
    tree = ast.parse((SRC / "counting.py").read_text())
    functions = dict(_functions(tree))
    assert sorted(name for name, fn in functions.items() if list(_calls(fn, "pop"))) == ["_walk"]
    assert sorted(name for name, fn in functions.items() if list(_calls(fn, "_walk"))) == [
        "_metered_gowers_set", "gowers_blocks",
    ]
    tree = ast.parse((SRC / "division.py").read_text())
    functions = dict(_functions(tree))
    assert [name for name, fn in functions.items() if list(_calls(fn, "gowers_blocks"))] == ["_first_cube"]
    for name in ("first_gowers_witness", "gowers_equation_solve"):
        assert len(list(_calls(functions[name], "_first_cube"))) == 1
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert "hypothesis scan exceeds" not in text


def test_checks_run_once_before_the_work_they_guard():
    # the nice search solves its translation system once, before the block
    # orders are tried (an order only reorders its equations), and the cube
    # equation tries the factorization first, then checks once that Box_s
    # fits, and scans Box_s only after both, on one path at every s
    loop_kinds = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    search = dict(_functions(ast.parse((SRC / "msets.py").read_text())))["_nice_search"]
    in_loops = {node for loop in ast.walk(search) if isinstance(loop, loop_kinds) for node in ast.walk(loop)}
    solves = list(_calls(search, "solve_linear"))
    assert len(solves) == 1 and solves[0] not in in_loops
    solve = dict(_functions(ast.parse((SRC / "division.py").read_text())))["gowers_equation_solve"]
    assert list(_calls(solve, "gowers_set")) == []
    # the fit check is a statement of the body itself, after both reductions
    # and the factorization's return, before the one scan; no table of V(M)
    # values is built
    body = [ast.unparse(node) for node in solve.body]
    fit = body.index("_metered_gowers_set(M, s, None, budget)")
    reductions = [i for i, line in enumerate(body) if "reduce_mod_form(" in line]
    answers = [i for i, line in enumerate(body) if "return ('factorization'" in line]
    scans = [i for i, line in enumerate(body) if "_first_cube(" in line]
    assert len(reductions) == 2 and len(answers) == 1 and len(scans) == 1
    assert max(reductions) < answers[0] < fit < scans[0]
    assert len(list(_calls(solve, "reduce_mod_form"))) == 2
    assert len(list(_calls(solve, "_metered_gowers_set"))) == 1
    for name in ("enumerate_zeros", "eval_many"):
        assert list(_calls(solve, name)) == []


def test_a_budget_meters_only_enumeration_that_runs():
    # closed forms and certificates take no budget: the four closed-form
    # counts, exp_sum among them, have no budget parameter and neither
    # check one nor enumerate, gowers_set meters Box_s only past its
    # closed-form return (s <= 2), and the antiderivative divides before it
    # enumerates V(M) (the cube equation's order is pinned by the test above)
    functions = dict(_functions(ast.parse((SRC / "counting.py").read_text())))
    assert "_check_budget" not in functions  # p^d is checked by _check_slice alone
    metering = ("_check_slice", "_box_meter", "_metered_gowers_set", "enumerate_zeros")
    for name in ("zero_count_check", "quadratic_root_count", "vmh_count_report", "exp_sum"):
        fn = functions[name]
        assert "budget" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs], name
        assert [callee for callee in metering if list(_calls(fn, callee))] == [], name
        assert "BudgetExceeded" not in {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}, name
    gowers = functions["gowers_set"]
    closed = [node for node in gowers.body if isinstance(node, ast.If) and ast.unparse(node.test) == "s <= 2"]
    assert len(closed) == 1 and isinstance(closed[0].body[-1], ast.Return)
    calls = [call for callee in metering for call in _calls(gowers, callee)]
    assert len(calls) == 1 and all(call.lineno > closed[0].end_lineno for call in calls)
    anti = dict(_functions(ast.parse((SRC / "division.py").read_text())))["antiderivative"]
    divisions = [call.lineno for call in _calls(anti, "bij_division")]
    scans = [call.lineno for call in _calls(anti, "enumerate_zeros")]
    assert len(scans) == 1 and min(divisions) < scans[0]


def test_the_fiber_scan_keeps_one_path():
    # the sphere solvers' scan tries the fiber at the first point of V_p(M)
    # before it enumerates V_p(M), whatever f is: no l-part branch
    functions = dict(_functions(ast.parse((SRC / "division.py").read_text())))
    assert "_has_l_part" not in functions
    scan = functions["_scan_fibers"]
    first = [call.lineno for call in _calls(scan, "first_zero")]
    full = [call.lineno for call in _calls(scan, "sphere_points")]
    assert len(first) == len(full) == 1 and first[0] < full[0]


def test_one_memo_of_sphere_systems():
    # a sphere system is built in closed form and its Hermite reduction is
    # kept in one memo in division; _zlinalg keeps neither a cache nor a
    # rational path, and the rational fallback and the grid/Newton builder
    # stay gone
    def imported(path):
        tree = ast.parse(path.read_text())
        return {a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}

    assert imported(SRC / "_zlinalg.py").isdisjoint({"lru_cache", "Fraction", "functools", "fractions"})
    tree = ast.parse((SRC / "division.py").read_text())
    caches = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "lru_cache"]
    assert len(caches) == 1, f"lru_cache used at division.py lines {caches}"
    gone = {"rat_solve", "_p_free_solve", "_newton_differences"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{fn.name}" for _, fn in _functions(tree) if fn.name in gone]
    assert found == []


def test_sphere_solvers_work_at_q0_one_only():
    # Q0 != 1 always meets a failing fiber first, so no q0 is carried, no
    # p-free part is taken and the implied second clause is not rechecked
    text = (SRC / "division.py").read_text()
    tree = ast.parse(text)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert "q0" not in names
    assert "_p_free_part" not in {name for name, _ in _functions(tree)}
    assert "second clause p^" not in text
    solve = {name: fn for name, fn in _functions(tree)}["_solve_certificate_first"]
    assert [a.arg for a in solve.args.args] == ["solve", "what", "certify", "scan"]


def test_one_delta_rule():
    # the bound of a mean, 0 < delta <= 1, is written once, in counting
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        found += [f"{path.name}:{name}" for name, _ in _functions(ast.parse(text)) if name == "_check_delta"]
        found += [f"{path.name}:text"] * text.count("must lie in (0, 1]")
    assert sorted(found) == ["counting.py:_check_delta", "counting.py:text"]


def test_msets_reduces_a_family_in_one_place():
    # every M-family is reduced by one rref in one function, whose pivots
    # also decide consistency (no rank calls beside it), and the symmetric
    # block matrix beta, with its 1/2 off the diagonal, is built once
    text = (SRC / "msets.py").read_text()
    tree = ast.parse(text)
    callers = sorted({name for name, fn in _functions(tree) if list(_calls(fn, "rref"))})
    assert callers == ["_echelon"] and len(list(_calls(tree, "rref"))) == 1
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "rank" not in imported
    halves = [name for name, fn in _functions(tree) if "pow(2, -1" in ast.get_source_segment(text, fn)]
    assert text.count("pow(2, -1") == 1 and halves == ["MQuadFn.beta"]


def test_traced_layers_resolve_on_the_package():
    # bench/tracing.py wraps each LAYERS entry by module and attribute name;
    # a rename in spherefp would leave that layer silently untraced
    import importlib
    import importlib.util

    path = SRC.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("spherefp_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, modname, attrs, _ in tracing.LAYERS:
        owner = importlib.import_module("spherefp." + modname)
        for attr in attrs.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{name}: spherefp.{modname}.{attrs}")
    assert tracing.LAYERS and missing == []


def test_every_report_leaves_through_main():
    # a subcommand returns (report, exit code) and writes nothing; main
    # stamps the schema and writes to stdout or --out once, so a rule for
    # every report has one place to live
    functions = dict(_functions(ast.parse((SRC / "cli.py").read_text())))
    assert [name for name, fn in functions.items() if list(_calls(fn, "_emit"))] == ["main"]
    readers = [
        name
        for name, fn in functions.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "out" and ast.unparse(node.value) == "args"
    ]
    assert readers == ["main"]
    assert {name for name in functions if name.startswith("cmd_")}


def test_every_library_exception_derives_from_the_one_base():
    # cli.main reads exit_code and label off the error, so a class outside
    # the hierarchy would fall through to the crash handler
    import importlib

    from spherefp.ffcore import SpherefpError

    stray = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"spherefp.{path.stem}" if path.stem != "__init__" else "spherefp")
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException) and not issubclass(cls, SpherefpError):
                    stray.append(f"{path.name}:{node.name}")
    assert stray == [], f"exception classes outside SpherefpError: {stray}"


def test_no_raise_names_a_builtin_exception():
    # a builtin raised on purpose carries no exit code; after parsing the
    # command line treats it as a crash
    import builtins

    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                obj = getattr(builtins, target.id, None) if isinstance(target, ast.Name) else None
                if isinstance(obj, type) and issubclass(obj, BaseException):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"raise of a builtin exception in src/spherefp: {found}"


def test_one_quadratic_kernel():
    # (x A + lin) . y is quadform.bilinear's alone, reduced where its bound
    # says so; "@ a) % p", a product reduced mod p before it is summed, is
    # the mark of a copy that reduces at every step
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "@ a) % p" in line
    ]
    assert found == [], f"per-product reductions in src/spherefp: {found}"
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [f"{path.stem}.{name}" for name, fn in _functions(tree) if list(_calls(fn, "bilinear"))]
    assert sorted(callers) == ["msets.MQuadFn.eval_array", "msets.enumerate_mset", "quadform.QuadForm.eval_array"]


def _float_arithmetic(fn):
    """Whether fn builds float64 arrays: numpy's float64 (or double)
    named, as a dtype string too, or the builtin float passed as a dtype."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr in ("float64", "double", "float_"):
            return True
        if isinstance(node, ast.Constant) and node.value in ("float64", "f8", "<f8", "double"):
            return True
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
            if any(isinstance(arg, ast.Name) and arg.id == "float" for arg in node.args):
                return True
        if isinstance(node, ast.keyword) and node.arg == "dtype":
            if isinstance(node.value, ast.Name) and node.value.id == "float":
                return True
    return False


def test_one_exactness_rule_for_float64():
    # float64 where fpoly.FLOAT_EXACT bounds every partial sum, int64 with
    # reductions otherwise: only the two kernels that check that bound
    # compute in float64, and 2^53 is written once, as FLOAT_EXACT
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        users += [f"{path.stem}.{name}" for name, fn in _functions(tree) if _float_arithmetic(fn)]
    assert sorted(users) == ["fpoly.FpMultiPoly.eval_many", "quadform.bilinear"]
    powers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                if getattr(node.right, "value", None) == 53:
                    powers.append(f"{path.name}:{node.lineno}")
    assert len(powers) == 1 and "FLOAT_EXACT = 2**53" in (SRC / "fpoly.py").read_text()


# public names that nothing in src/ or bench/ calls, kept on purpose: a
# statement of the paper (tests check it against the theorem) or an oracle
# that tests check a library path against
UNCALLED_PUBLIC_NAMES = {
    "antiderivative": "statement",
    "compose_liftings": "statement",
    "find_nonisotropic": "statement",
    "is_p_periodic": "statement",
    "mset_cardinality_check": "statement",
    "parallel_certificate": "statement",
    "perp": "statement",
    "quadratic_root_count": "statement",
    "vmh_count_report": "statement",
    "constancy_check": "oracle",
    "family_to_json": "oracle",
    "gauss_sum": "oracle",
    "restricted_rank": "oracle",
}


def _spherefp_modules(tree):
    """The names a file binds to spherefp modules: `from . import m`,
    `from spherefp import m` and `import spherefp.m` (dotted, as its
    attributes are written), anywhere in the file."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level and node.module is None or node.module == "spherefp"):
            found.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "spherefp":
                    parts = a.name.split(".")
                    found.update([a.asname] if a.asname else (".".join(parts[:i]) for i in range(1, len(parts) + 1)))
    return found


def _mentions(stmt, modules, strings=False):
    """Identifiers a top-level statement uses: names, from-imports, the
    attributes of a name in modules (a spherefp module binding, dotted) and,
    with strings (bench/tracing.py, the one file that names layers by
    string), the words of string constants, docstrings left out.  An
    attribute of anything else, such as rep.total_codim, is not a use of a
    top-level name, nor is a report key such as "total_codim"."""
    docs = {id(node.value) for node in ast.walk(stmt) if isinstance(node, ast.Expr)}
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            if ast.unparse(node.value) in modules:
                found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def test_mentions_resolve_module_attributes_only():
    # msets.total_codim names the module's function; rep.total_codim is an
    # attribute of a report, which a name match alone would count, and the
    # report key "total_codim" names it only where strings are read
    tree = ast.parse("from . import msets\nfrom .counting import gauss_sum as gs\nimport spherefp.cli\n"
                     "a = rep.total_codim\nb = msets.total_codim\nc = spherefp.cli.main\n"
                     "d = {'total_codim': 1}")
    modules = _spherefp_modules(tree)
    assert modules == {"msets", "spherefp", "spherefp.cli"}
    imports, rep, mod, cli, key = (_mentions(tree.body[i], modules) for i in (1, 3, 4, 5, 6))
    assert "gauss_sum" in imports and "gs" not in imports
    assert "total_codim" not in rep and "total_codim" in mod and "main" in cli
    assert "total_codim" not in key and "total_codim" in _mentions(tree.body[6], modules, strings=True)


def test_every_public_name_has_a_caller_or_a_reason():
    # a public function or class that no other statement of src/ or bench/
    # uses (by name, or by string in bench/tracing.py's layer table) is
    # either a paper statement or a test oracle, listed above; any other is
    # a second path to an answer that some caller already gets
    bench = SRC.parent.parent / "bench"
    where, defined = {}, []
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = _spherefp_modules(tree)
        for i, stmt in enumerate(tree.body):
            for name in _mentions(stmt, modules, path.name == "tracing.py"):
                where.setdefault(name, set()).add((path, i))
            if path.parent == SRC and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined.append((path, i, stmt.name))
    assert defined
    uncalled = {name for path, i, name in defined if not where.get(name, set()) - {(path, i)}}
    assert uncalled == set(UNCALLED_PUBLIC_NAMES), (
        f"uncalled and unlisted: {sorted(uncalled - set(UNCALLED_PUBLIC_NAMES))}; "
        f"listed but called or gone: {sorted(set(UNCALLED_PUBLIC_NAMES) - uncalled)}"
    )
