import json
import subprocess
import sys

import pytest

from spherefp import cli, counting, division, equidist
from spherefp.cli import main
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


def test_budget_exit_3(sphere_json):
    code, _, err = run_cli(["count", "--json", sphere_json, "--budget", "10"])
    assert code == 3


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


def test_determinism_across_threads_and_runs(tmp_path, sphere_json):
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
        for threads in ("1", "8"):
            for _ in range(2):
                code, out, _ = run_cli(args + ["--threads", threads])
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


@pytest.mark.parametrize(
    "error",
    [
        TheoremViolation("forced"),
        division.NoSolution("forced"),
        equidist.DichotomyViolation({"forced": True}),
        RuntimeError("forced"),
    ],
)
def test_internal_failure_exit_4(monkeypatch, tmp_path, sphere_json, capsys, error):
    # a failure inside the library must not read as the second branch (1)
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(division, "nullstellensatz", broken)
    one = {"nvars": 3, "terms": [{"exp": [0, 0, 0], "coeff": 1}]}
    path = write(tmp_path, "ns.json", {"form": json.loads(open(sphere_json).read()), "poly": one})
    assert main(["nullstellensatz", "--json", path]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags",
    [["--budget", "0"], ["--budget", "-5"], ["--trials", "0"], ["--s", "-1"], ["--freq-budget", "-1"]],
)
def test_numeric_flags_validated_before_work(monkeypatch, sphere_json, capsys, flags):
    def never(*args, **kwargs):
        raise AssertionError("work started before flag validation")

    monkeypatch.setattr(counting, "zero_count_check", never)
    assert main(["count", "--json", sphere_json] + flags) == cli.EXIT_INPUT == 2
    assert flags[0] in capsys.readouterr().err
