import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import spherefp
from spherefp import cli, counting, division, equidist
from spherefp.cli import main
from spherefp.ffcore import SpherefpError
from spherefp.quadform import TheoremViolation

RUN = [sys.executable, "-m", "spherefp.cli"]


def run_cli(args, tmp_path=None):
    proc = subprocess.run(RUN + args, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sphere_json(tmp_path):
    return write(
        tmp_path,
        "sphere.json",
        {"p": 5, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0, 0, 0], "v": 4},
    )


def test_count_and_normalize(sphere_json):
    code, out, _ = run_cli(["count", "--json", sphere_json])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] == 30 and rep["pass"] and rep["schema"] == "sphere-hofa/1"
    code, out, _ = run_cli(["normalize", "--json", sphere_json])
    assert code == 0 and json.loads(out)["verified"]


def test_expsum(tmp_path, sphere_json):
    blob = {
        "form": json.loads(open(sphere_json).read()),
        "xi": [1, 0, 0],
    }
    path = write(tmp_path, "expsum.json", blob)
    code, out, _ = run_cli(["expsum", "--json", path])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["abs"] - 0.10300566479164909) < 1e-9 and rep["pass"]


def test_nullstellensatz_exit_codes(tmp_path, sphere_json):
    form = json.loads(open(sphere_json).read())
    # P = 3 M: certificate, exit 0 (degree 2 keeps p > 2 deg(P) at p = 5)
    mult = {
        "nvars": 3,
        "terms": [
            {"exp": [2, 0, 0], "coeff": 3},
            {"exp": [0, 2, 0], "coeff": 3},
            {"exp": [0, 0, 2], "coeff": 3},
            {"exp": [0, 0, 0], "coeff": 2},
        ],
    }
    path = write(tmp_path, "ns.json", {"form": form, "poly": mult})
    code, out, _ = run_cli(["nullstellensatz", "--json", path])
    assert code == 0 and json.loads(out)["kind"] == "certificate"
    # P = 1: witness, exit 1
    one = {"nvars": 3, "terms": [{"exp": [0, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "ns2.json", {"form": form, "poly": one})
    code, out, _ = run_cli(["nullstellensatz", "--json", path])
    assert code == 1 and json.loads(out)["kind"] == "witness"


def test_weyl_constant_branch(tmp_path):
    # g = (n.n - 1) * 1 + 0: the constructed Constant branch, exit 1
    poly = {
        "nvars": 3,
        "terms": [
            {"exp": [2, 0, 0], "coeff": "1"},
            {"exp": [0, 2, 0], "coeff": "1"},
            {"exp": [0, 0, 2], "coeff": "1"},
            {"exp": [0, 0, 0], "coeff": "-1"},
        ],
    }
    path = write(tmp_path, "weyl.json", {"poly": poly, "radius": 1})
    code, out, _ = run_cli(["weyl", "--prime", "5", "--delta", "0.4", "--json", path])
    assert code == 1
    rep = json.loads(out)
    assert rep["branch"] == "constant" and rep["abs_sum"] == 1.0


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["count", "--json", str(bad)])
    assert code == 2
    code, _, _ = run_cli(["count", "--json", str(tmp_path / "missing.json")])
    assert code == 2


# the CLI under a 1.5 GB address-space cap, since weyl once grew memory
# without bound on a negative exponent
BOUNDED = [
    sys.executable,
    "-c",
    "import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2); "
    "runpy.run_module('spherefp.cli', run_name='__main__')",
]


@pytest.mark.parametrize(
    "args, blob",
    [
        (
            ["weyl", "--prime", "5", "--delta", "0.4"],
            {"poly": {"nvars": 3, "terms": [{"exp": [-1, 0, 0], "coeff": "1"}]}, "radius": 1},
        ),
        (
            ["decompose", "--kind", "lift-nullstellensatz"],
            {
                "form": {"p": 5, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0] * 3, "v": -1},
                "poly": {"nvars": 3, "terms": [{"exp": [-1, 0, 0], "coeff": "1"}]},
            },
        ),
    ],
)
def test_negative_exponents_in_rational_input_exit_2(tmp_path, args, blob):
    path = write(tmp_path, "neg.json", blob)
    proc = subprocess.run(BOUNDED + args + ["--json", path], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exponents must be nonnegative" in proc.stderr


def test_budget_exit_3(tmp_path, sphere_json):
    # an enumeration past its budget exits 3: M does not divide P = 1, so the
    # Nullstellensatz looks for a witness in V(M), 125 candidates against 10.
    # The zero count and the exponential sum are closed forms and take no
    # budget, so count and expsum at --budget 1 report what the default does
    form = json.loads(open(sphere_json).read())
    one = {"nvars": 3, "terms": [{"exp": [0, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "ns.json", {"form": form, "poly": one})
    code, out, err = run_cli(["nullstellensatz", "--json", path, "--budget", "10"])
    assert code == 3 and out == ""
    assert err == "budget exceeded: enumeration of size 125 exceeds budget 10\n"
    expsum = write(tmp_path, "expsum.json", {"form": form, "xi": [1, 0, 0]})
    for args in (["count", "--json", sphere_json], ["expsum", "--json", expsum]):
        want = run_cli(args)
        assert want[0] == 0 and run_cli(args + ["--budget", "1"]) == want


def test_gowers_walk_deeper_than_the_recursion_limit_exits_3(sphere_json, capsys):
    # the Box_s walk keeps its own stack, so a large s runs out of budget,
    # not of Python frames
    assert main(["gowers", "--json", sphere_json, "--s", "1500", "--budget", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget exceeded:")


@pytest.mark.parametrize("blob", [{"s": 40, "dim": 4}, {"s": 1000000}])
def test_leibman_probe_degree_over_budget_exits_3(monkeypatch, tmp_path, capsys, blob):
    # each draw is re-checked on a fiber plan of C(2d + s, 2d) pairs: 3.8e8
    # at d = 4, s = 40; refused before the sphere is enumerated or a draw made
    def never(*args, **kwargs):
        raise AssertionError("leibman_probe started work before its budget check")

    monkeypatch.setattr(equidist, "sphere_points", never)
    monkeypatch.setattr(equidist, "random_partially_periodic", never)
    path = write(tmp_path, "probe.json", blob)
    assert main(["leibman-probe", "--trials", "2", "--json", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget exceeded: fiber pair plan of size")


def test_gowers_and_dichotomy(tmp_path, sphere_json):
    form = json.loads(open(sphere_json).read())
    code, out, _ = run_cli(["gowers", "--json", sphere_json, "--s", "1"])
    assert code == 0 and json.loads(out)["exact"] == 900
    lin = {"nvars": 3, "terms": [{"exp": [1, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "dich.json", {"form": form, "poly": lin})
    code, out, _ = run_cli(["dichotomy", "--json", path, "--delta", "0.4"])
    assert code == 0 and json.loads(out)["kind"] == "small"


def test_mset_and_probe(tmp_path):
    form = {"p": 7, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": 6}
    family = {
        "k": 2,
        "functions": [
            {"b": {"1,1": 1}, "v": [[0] * 4, [0] * 4], "u": 6},
            {"b": {"1,2": 2, "2,2": 1}, "v": [[0] * 4, [0] * 4], "u": 0},
        ],
    }
    path = write(tmp_path, "mset.json", {"form": form, "family": family})
    code, out, _ = run_cli(["mset-repr", "--json", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension_vector"] == [1, 1] and rep["total_codim"] == 2
    code, out, _ = run_cli(
        ["fubini-check", "--json", path, "--seed", "7"]
    )
    assert code == 0 and json.loads(out)["pass"]


def test_equidist_cli(tmp_path):
    seq = {
        "d": 3,
        "m": 1,
        "s": 2,
        "coeffs": [
            {"index": [2, 0, 0], "value": ["2/5"]},
            {"index": [1, 1, 0], "value": ["4/5"]},
            {"index": [0, 2, 0], "value": ["2/5"]},
            {"index": [0, 0, 2], "value": ["2/5"]},
            {"index": [1, 0, 0], "value": ["1/5"]},
            {"index": [0, 1, 0], "value": ["1/5"]},
            {"index": [0, 0, 1], "value": ["1/5"]},
            {"index": [0, 0, 0], "value": ["1/5"]},
        ],
    }
    # the binomial-basis coefficients above re-assemble (n.n - 1)/5 + 2/5,
    # which is constant 1/5 + 1/5 ... obstructed on the radius-1 sphere
    path = write(tmp_path, "seq.json", {"sequence": seq, "radius": 1})
    code, out, _ = run_cli(["equidist", "--prime", "5", "--delta", "0.3", "--json", path])
    rep = json.loads(out)
    assert rep["verdict"] in {"obstructed", "equidistributed"}
    assert code in (0, 1)


def test_determinism_across_runs(tmp_path, sphere_json):
    form = json.loads(open(sphere_json).read())
    lin = {"nvars": 3, "terms": [{"exp": [1, 0, 0], "coeff": 1}]}
    battery = [
        (["count", "--json", sphere_json],),
        (["normalize", "--json", sphere_json],),
        (["gowers", "--json", sphere_json, "--s", "1"],),
        (
            [
                "dichotomy",
                "--json",
                write(tmp_path, "d.json", {"form": form, "poly": lin}),
                "--delta",
                "0.4",
            ],
        ),
        (["leibman-probe", "--prime", "5", "--dim", "3", "--seed", "11", "--trials", "3"],),
    ]
    for (args,) in battery:
        outs = set()
        for _ in range(2):
            code, out, _ = run_cli(args)
            outs.add(out)
        assert len(outs) == 1, f"nondeterministic output for {args}"


def test_main_entry_direct(sphere_json, capsys):
    assert main(["count", "--json", sphere_json]) == 0
    captured = capsys.readouterr()
    assert '"exact":30' in captured.out


def test_divide_and_decompose_kinds(tmp_path):
    form = {"p": 5, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": 4}
    # divide
    poly = {"nvars": 4, "terms": [{"exp": [3, 0, 0, 0], "coeff": 2}]}
    path = write(tmp_path, "div.json", {"form": form, "poly": poly})
    code, out, _ = run_cli(["divide", "--json", path])
    assert code == 0 and json.loads(out)["verified"]
    # intrinsic decomposition: witness branch for n1^2
    g = {"nvars": 4, "terms": [{"exp": [2, 0, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "dec.json", {"form": form, "poly": g})
    code, out, _ = run_cli(["decompose", "--kind", "intrinsic", "--json", path, "--s", "2"])
    assert code == 1 and json.loads(out)["kind"] == "witness"
    # lift nullstellensatz on the Z/p side: certificate for M * 2
    zform = {"p": 5, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": -1}
    mz2 = {
        "nvars": 4,
        "terms": [
            {"exp": [2, 0, 0, 0], "coeff": "2/5"},
            {"exp": [0, 2, 0, 0], "coeff": "2/5"},
            {"exp": [0, 0, 2, 0], "coeff": "2/5"},
            {"exp": [0, 0, 0, 2], "coeff": "2/5"},
            {"exp": [0, 0, 0, 0], "coeff": "-2/5"},
        ],
    }
    path = write(tmp_path, "lift.json", {"form": zform, "poly": mz2})
    code, out, _ = run_cli(["decompose", "--kind", "lift-nullstellensatz", "--json", path])
    assert code == 0 and json.loads(out)["kind"] == "certificate"
    # sphere-periodic decomposition of an integer-valued/5 polynomial
    f = {"nvars": 4, "terms": [{"exp": [1, 0, 0, 0], "coeff": "1/5"}]}
    path = write(tmp_path, "per.json", {"form": zform, "poly": f})
    code, out, _ = run_cli(["decompose", "--kind", "sphere-periodic", "--json", path])
    assert code == 0 and json.loads(out)["kind"] == "decomposition"
    # gowers-equation factorization, constructed instance
    mpoly = {
        "nvars": 4,
        "terms": [
            {"exp": [2, 0, 0, 0], "coeff": 1},
            {"exp": [0, 2, 0, 0], "coeff": 1},
            {"exp": [0, 0, 2, 0], "coeff": 1},
            {"exp": [0, 0, 0, 2], "coeff": 1},
            {"exp": [0, 0, 0, 0], "coeff": 4},
        ],
    }
    path = write(
        tmp_path,
        "geq.json",
        {"form": form, "P": {"nvars": 4, "terms": []}, "Q": mpoly},
    )
    code, out, _ = run_cli(["decompose", "--kind", "gowers-equation", "--json", path, "--s", "1"])
    assert code == 0 and json.loads(out)["kind"] == "factorization"


def test_irreducibility_probe_cli(tmp_path):
    form = {"p": 7, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": 6}
    family = {"k": 1, "functions": [{"b": {"1,1": 1}, "v": [[0] * 4], "u": 6}]}
    path = write(tmp_path, "probe.json", {"form": form, "family": family})
    code, out, _ = run_cli(
        ["irreducibility-probe", "--json", path, "--s", "2", "--delta", "0.3", "--trials", "20", "--seed", "3"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["middle_ground"] == [] and sum(rep["counts"].values()) == 20


def test_sphere_vanishing_cli_and_inferred_arity(tmp_path):
    zform = {"p": 5, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": -1}
    # f = M^2 * 3 vanishes into Z on the quadric
    f = {
        "nvars": 4,
        "terms": [
            {"exp": [4, 0, 0, 0], "coeff": "3/25"},
            {"exp": [2, 2, 0, 0], "coeff": "6/25"},
            {"exp": [2, 0, 2, 0], "coeff": "6/25"},
            {"exp": [2, 0, 0, 2], "coeff": "6/25"},
            {"exp": [0, 4, 0, 0], "coeff": "3/25"},
            {"exp": [0, 2, 2, 0], "coeff": "6/25"},
            {"exp": [0, 2, 0, 2], "coeff": "6/25"},
            {"exp": [0, 0, 4, 0], "coeff": "3/25"},
            {"exp": [0, 0, 2, 2], "coeff": "6/25"},
            {"exp": [0, 0, 0, 4], "coeff": "3/25"},
            {"exp": [2, 0, 0, 0], "coeff": "-6/25"},
            {"exp": [0, 2, 0, 0], "coeff": "-6/25"},
            {"exp": [0, 0, 2, 0], "coeff": "-6/25"},
            {"exp": [0, 0, 0, 2], "coeff": "-6/25"},
            {"exp": [0, 0, 0, 0], "coeff": "3/25"},
        ],
    }
    path = write(tmp_path, "sv.json", {"form": zform, "poly": f})
    code, out, _ = run_cli(["decompose", "--kind", "sphere-vanishing", "--json", path])
    assert code == 0 and json.loads(out)["kind"] == "decomposition"
    # torus sequence without the optional "d" field: arity inferred
    seq = {"m": 1, "s": 2, "coeffs": [{"index": [2, 0, 0], "value": ["1/5"]}]}
    path = write(tmp_path, "seq2.json", {"sequence": seq, "radius": 1})
    code, out, _ = run_cli(["equidist", "--prime", "5", "--delta", "0.3", "--json", path])
    assert code in (0, 1)


def _raise_from_nullstellensatz(monkeypatch, tmp_path, sphere_json, error):
    # the input parses; the error comes from the library call after it
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(division, "nullstellensatz", broken)
    one = {"nvars": 3, "terms": [{"exp": [0, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "ns.json", {"form": json.loads(open(sphere_json).read()), "poly": one})
    return main(["nullstellensatz", "--json", path])


@pytest.mark.parametrize(
    "error",
    [
        TheoremViolation("forced"),
        equidist.DichotomyViolation({"forced": True}),
        RuntimeError("forced"),
        TypeError("forced"),
        KeyError("forced"),
        ValueError("forced"),
        ZeroDivisionError("forced"),
    ],
)
def test_internal_failure_exit_4(monkeypatch, tmp_path, sphere_json, capsys, error):
    # a failure inside the library must not read as the second branch (1),
    # and a builtin error after parsing is a crash, not an input error (2)
    assert _raise_from_nullstellensatz(monkeypatch, tmp_path, sphere_json, error) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    if isinstance(error, SpherefpError):
        assert captured.err == f"theorem violation: {error}\n"
    else:
        assert captured.err.startswith("internal error:\nTraceback")
        assert f"{type(error).__name__}: " in captured.err


def _library_errors():
    for info in pkgutil.iter_modules(spherefp.__path__):
        importlib.import_module(f"spherefp.{info.name}")
    found, todo = {SpherefpError}, [SpherefpError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


# every library error class, with the exit code and stderr label it must give
EXIT_CODES = {
    "ffcore.SpherefpError": (4, "internal error"),
    "ffcore.Infeasible": (4, "internal error"),
    "ffcore.TheoremViolation": (4, "theorem violation"),
    "equidist.DichotomyViolation": (4, "theorem violation"),
    "ffcore.MalformedInput": (2, "input error"),
    "ffcore.NotPrime": (2, "input error"),
    "fpoly.ArityMismatch": (2, "input error"),
    "ffcore.BudgetExceeded": (3, "budget exceeded"),
    "ffcore.HypothesisNotMet": (5, "hypothesis not met"),
    "ffcore.HypothesisFailed": (5, "hypothesis not met"),
    "quadform.RankHypothesisFailed": (5, "hypothesis not met"),
    "counting.DependentShifts": (5, "hypothesis not met"),
    "fpoly.ValueRangeError": (5, "hypothesis not met"),
    "fpoly.NotIntegerValued": (5, "hypothesis not met"),
    "msets.NotConsistent": (5, "hypothesis not met"),
    "division.PivotZero": (5, "hypothesis not met"),
    "division.ZeroMatrix": (5, "hypothesis not met"),
    "division.WitnessFound": (5, "hypothesis not met"),
    "division.NotSphereIntegral": (5, "hypothesis not met"),
    "division.NotPartiallyPeriodic": (5, "hypothesis not met"),
}


def test_every_library_error_has_its_exit_code(monkeypatch, tmp_path, sphere_json, capsys):
    classes = {f"{cls.__module__.removeprefix('spherefp.')}.{cls.__name__}": cls for cls in _library_errors()}
    assert sorted(classes) == sorted(EXIT_CODES), "a library error class is missing from EXIT_CODES"
    for name, cls in sorted(classes.items()):
        code, label = EXIT_CODES[name]
        assert _raise_from_nullstellensatz(monkeypatch, tmp_path, sphere_json, cls("forced")) == code, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        # one line, no traceback
        assert captured.err.startswith(f"{label}: ") and captured.err.count("\n") == 1, name


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"leibman-probe"}))
@pytest.mark.parametrize("blob", [{}, []])
def test_unreadable_input_exits_2_for_every_command(tmp_path, capsys, command, blob):
    path = write(tmp_path, "blob.json", blob)
    assert main([command, "--json", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


DOT3 = {"p": 5, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0] * 3, "v": 4}
DOT4 = {"p": 7, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": 6}
ZP4 = {"p": 5, "A": DOT4["A"], "u": [0] * 4, "v": -1}
X1 = {"nvars": 4, "terms": [{"exp": [1, 0, 0, 0], "coeff": 1}]}


def _family(v):
    return {"form": DOT4, "family": {"k": 2, "functions": [{"b": {"1,1": 1}, "v": v, "u": 6}]}}


# input that parses as JSON but is not a valid object; before the input
# checks, several of these crashed after parsing (exit 4) or, for the
# arity mismatch of an intrinsic decomposition, "succeeded" with exit 0
MALFORMED = [
    (["normalize"], DOT3 | {"p": 4}, "4 is not prime"),
    (["count"], DOT3 | {"A": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}, "A must be symmetric"),
    (["gowers"], DOT3 | {"A": [[1, 0, 0], [0, 1.5, 0], [0, 0, 1]]}, "number 1.5 is not an integer"),
    (["divide"], {"form": DOT3, "poly": X1}, "nvars differs"),
    (["decompose", "--kind", "intrinsic", "--s", "2"], {"form": DOT3, "poly": X1}, "nvars differs"),
    (["decompose", "--kind", "sphere-periodic"], {"form": ZP4 | {"p": 4}, "poly": X1}, "4 is not prime"),
    (["decompose", "--kind", "sphere-periodic"], {"form": ZP4 | {"p": "5"}, "poly": X1}, "TypeError"),
    (["mset-repr"], _family([[0] * 3, [0] * 4]), "v must hold k vectors of length d"),
    (["mset-repr"], _family([[0] * 4]), "v must hold k vectors of length d"),
    (["equidist"], {"sequence": {"m": 0, "s": 2, "d": 3, "coeffs": []}, "radius": 1}, "need d, m >= 1"),
    (["equidist"], {"sequence": {"m": 1, "s": 2, "d": 0, "coeffs": []}, "radius": 1}, "need d, m >= 1"),
    (["leibman-probe", "--trials", "2", "--dim", "0"], None, "leibman_probe needs d, s >= 1"),
    (["leibman-probe", "--trials", "2"], {"s": 0}, "leibman_probe needs d, s >= 1"),
    (["fubini-check"], _family([[0] * 4] * 2) | {"kprime": 3}, "kprime must lie in 0..k = 2, got 3"),
    (["fubini-check"], _family([[0] * 4] * 2) | {"kprime": -1}, "kprime must lie in 0..k = 2, got -1"),
    # an offset shorter than the basis vectors: a numpy broadcast crash
    # (exit 4), and with a rank-1 basis a "hypothesis not met" (exit 5)
    (["count"], {"form": DOT3, "subspace": {"basis": DOT3["A"], "offset": [0, 0]}}, "offset of length 2"),
    (["count"], {"form": DOT3, "subspace": {"basis": [[1, 0, 0]], "offset": [0, 0]}}, "offset of length 2"),
    (["count"], {"form": DOT3, "subspace": {"basis": [], "offset": []}}, "empty basis needs an offset"),
    # a boolean is an int to Python: true read as 1 exited 0, and k = true
    # was echoed back as true; k = -1 gave an empty dimension vector (exit
    # 0) and k = "2" a crash (exit 4)
    (["expsum"], {"form": DOT3 | {"A": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}, "xi": [1, 0, 0]}, "true is not an integer"),
    (["expsum"], {"form": DOT3, "xi": [True, 0, 0]}, "true is not an integer"),
    (["mset-repr"], {"form": DOT4, "family": {"k": True, "functions": []}}, "true is not an integer"),
    (["mset-repr"], {"form": DOT4, "family": {"k": -1, "functions": []}}, "k must be an integer >= 1, got -1"),
    (["mset-repr"], {"form": DOT4, "family": {"k": "2", "functions": []}}, "k must be an integer >= 1, got '2'"),
    # an empty u or v was read as all zeros (exit 0)
    (["normalize"], DOT3 | {"u": []}, "u has wrong length"),
    (["decompose", "--kind", "sphere-periodic"], {"form": ZP4 | {"u": []}, "poly": X1}, "u has wrong length"),
    (["mset-repr"], _family([]), "v must hold k vectors of length d"),
]


@pytest.mark.parametrize("args, blob, message", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, args, blob, message):
    if blob is not None:
        args = args + ["--json", write(tmp_path, "in.json", blob)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ") and message in captured.err


def test_hypothesis_failure_exits_5(tmp_path, capsys):
    # deg P = 3 >= p / 2 at p = 5: well-formed, outside the hypothesis
    form = {"p": 5, "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "u": [0] * 4, "v": 4}
    poly = {"nvars": 4, "terms": [{"exp": [3, 0, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "ns.json", {"form": form, "poly": poly})
    assert main(["nullstellensatz", "--json", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("hypothesis not met: ")


def test_irreducibility_probe_of_an_empty_family_exits_5(tmp_path, capsys):
    path = write(tmp_path, "probe.json", {"form": DOT4, "family": {"k": 1, "functions": []}})
    assert main(["irreducibility-probe", "--json", path, "--trials", "3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "hypothesis not met: the irreducibility probe needs a nonempty family\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--budget", "0"],
        ["--budget", "-5"],
        ["--trials", "0"],
        ["--s", "-1"],
        ["--freq-budget", "-1"],
        ["--delta", "0"],
        ["--delta", "-0.3"],
        ["--delta", "nan"],
    ],
)
def test_numeric_flags_validated_before_work(monkeypatch, sphere_json, capsys, flags):
    def never(*args, **kwargs):
        raise AssertionError("work started before flag validation")

    monkeypatch.setattr(counting, "zero_count_check", never)
    assert main(["count", "--json", sphere_json] + flags) == 2
    assert flags[0] in capsys.readouterr().err


# what `import spherefp.cli` and one subcommand per layer leave in
# sys.modules: a cold process compiles every spherefp module it loads, so a
# subcommand loads the parsing layers, counting and the layer it runs alone
_LOADED = (
    "import json, sys\n"
    "from spherefp import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "names = sorted(m for m in sys.modules if m.startswith('spherefp') or m == 'traceback')\n"
    "print(json.dumps([code, names]))\n"
)
_PARSING = ["spherefp", "spherefp.cli", "spherefp.counting", "spherefp.ffcore", "spherefp.fpoly", "spherefp.quadform"]


def _loaded(args):
    proc = subprocess.run([sys.executable, "-c", _LOADED] + args, capture_output=True, text=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_subcommand_loads_only_the_layer_it_runs(tmp_path, sphere_json):
    form = json.loads(open(sphere_json).read())
    cube = {"nvars": 3, "terms": [{"exp": [3, 0, 0], "coeff": 2}]}
    family = {"k": 1, "functions": [{"b": {"1,1": 1}, "v": [[0] * 3], "u": 0}]}
    sphere = [{"exp": [2 * (i == j) for j in range(3)], "coeff": "1"} for i in range(3)]
    sphere = {"nvars": 3, "terms": sphere + [{"exp": [0, 0, 0], "coeff": "-1"}]}  # constant on the sphere
    out = str(tmp_path / "report.json")
    cases = [
        ([], [], 0),
        (["count", "--json", sphere_json], [], 0),
        (["divide", "--json", write(tmp_path, "div.json", {"form": form, "poly": cube})],
         ["spherefp._zlinalg", "spherefp.division"], 0),
        (["mset-repr", "--json", write(tmp_path, "mset.json", {"form": form, "family": family})],
         ["spherefp.msets"], 0),
        (["weyl", "--prime", "5", "--delta", "0.4", "--json", write(tmp_path, "weyl.json", {"poly": sphere, "radius": 1})],
         ["spherefp._zlinalg", "spherefp.division", "spherefp.equidist"], 1),
    ]
    for args, extra, want_code in cases:
        code, names = _loaded(args + ["--out", out] if args else args)
        assert names == sorted(_PARSING + extra), args
        assert code == want_code, args
