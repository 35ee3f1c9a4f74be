"""Command-line frontend: JSON in, JSON certificates and reports out.

Exit codes: 0 first branch / success, 1 second branch / witness found,
2 input error (including a numeric flag out of range), 3 budget exceeded,
4 internal failure: a theorem violation, a solver that found no solution
where the theory promises one, or any other uncaught exception.  Reports are
canonical JSON (sorted keys, fixed separators) so identical seeds give
byte-identical output regardless of the thread count; all parallel
reductions in the library are order-independent by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback

from . import counting, division, equidist, msets
from .counting import BudgetExceeded
from .fpoly import FpMultiPoly, RatMultiPoly
from .msets import NotConsistent
from .quadform import AffineSubspace, QuadForm, TheoremViolation, normalize

SCHEMA = "sphere-hofa/1"

EXIT_FIRST = 0
EXIT_SECOND = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(report, out_path):
    report["schema"] = SCHEMA
    text = canonical_dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    if path is None:
        raise InputError("missing --json input file")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON input: {exc}") from None


def _quadform(obj):
    try:
        return QuadForm.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad quadratic form: {exc}") from None


def _fp_poly(obj, p):
    try:
        return FpMultiPoly.from_json(p, obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad F_p polynomial: {exc}") from None


def _rat_poly(obj):
    try:
        return RatMultiPoly.from_json(obj)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational polynomial: {exc}") from None


def cmd_normalize(args):
    data = _load_json(args.json)
    M = _quadform(data)
    cert = normalize(M)
    report = cert.to_json()
    report["verified"] = cert.verify()
    _emit(report, args.out)
    return EXIT_FIRST


def cmd_count(args):
    data = _load_json(args.json)
    M = _quadform(data["form"] if "form" in data else data)
    S = None
    if isinstance(data, dict) and data.get("subspace"):
        S = AffineSubspace.from_json(M.field, data["subspace"])
    rep = counting.zero_count_check(M, S, args.budget)
    _emit(rep.to_json(), args.out)
    return EXIT_FIRST


def cmd_expsum(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    xi = data["xi"]
    value = counting.exp_sum(M, xi, args.budget)
    report = {
        "re": value.real,
        "im": value.imag,
        "abs": abs(value),
        "bound": counting.exp_sum_bound(M) if any(x % M.p for x in xi) else 1.0,
    }
    report["pass"] = report["abs"] <= report["bound"] + 1e-9
    _emit(report, args.out)
    return EXIT_FIRST


def cmd_gowers(args):
    data = _load_json(args.json)
    M = _quadform(data["form"] if "form" in data else data)
    rep = counting.gowers_count_report(M, args.s, None, args.budget)
    _emit(rep.to_json(), args.out)
    return EXIT_FIRST


def cmd_divide(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    P = _fp_poly(data["poly"], M.p)
    cert = division.bij_division(P, M)
    report = cert.to_json()
    report["verified"] = cert.verify()
    _emit(report, args.out)
    return EXIT_FIRST


def cmd_nullstellensatz(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    P = _fp_poly(data["poly"], M.p)
    kind, payload = division.nullstellensatz(P, M, args.budget)
    if kind == "certificate":
        _emit({"kind": "certificate", "quotient": payload.to_json()}, args.out)
        return EXIT_FIRST
    _emit({"kind": "witness", "point": list(payload)}, args.out)
    return EXIT_SECOND


def cmd_dichotomy(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    P = _fp_poly(data["poly"], M.p)
    verdict = division.dichotomy(P, M, args.delta, args.budget)
    report = verdict.to_json()
    report["delta"] = args.delta
    _emit(report, args.out)
    return EXIT_FIRST if verdict.kind == "small" else EXIT_SECOND


def cmd_decompose(args):
    data = _load_json(args.json)
    kind = args.kind
    if kind == "intrinsic":
        M = _quadform(data["form"])
        g = _fp_poly(data["poly"], M.p)
        res = division.intrinsic_decompose(g, M, args.s, args.budget)
        if res[0] == "decomposition":
            _emit(
                {"kind": "decomposition", "g1": res[1].to_json(), "g2": res[2].to_json()},
                args.out,
            )
            return EXIT_FIRST
        _emit({"kind": "witness", "cube": [list(x) for x in res[1]]}, args.out)
        return EXIT_SECOND
    if kind == "gowers-equation":
        M = _quadform(data["form"])
        P = _fp_poly(data["P"], M.p)
        Q = _fp_poly(data["Q"], M.p)
        res = division.gowers_equation_solve(P, Q, M, args.s, args.budget)
        if res[0] == "factorization":
            _emit(
                {
                    "kind": "factorization",
                    "P1": res[1].to_json(),
                    "P2": res[2].to_json(),
                    "Q1": res[3].to_json(),
                    "Q2": res[4].to_json(),
                },
                args.out,
            )
            return EXIT_FIRST
        _emit({"kind": "witness", "cube": [list(x) for x in res[1]]}, args.out)
        return EXIT_SECOND
    Mz = division.ZpQuadForm.from_json(data["form"])
    f = _rat_poly(data["poly"])
    if kind == "lift-nullstellensatz":
        try:
            p1, p0 = division.lift_nullstellensatz(f, Mz, args.budget)
        except division.WitnessFound as exc:
            _emit({"kind": "witness", "point": list(exc.witness)}, args.out)
            return EXIT_SECOND
        _emit({"kind": "certificate", "P1": p1.to_json(), "P0": p0.to_json()}, args.out)
        return EXIT_FIRST
    if kind == "sphere-vanishing":
        try:
            q0, rs = division.sphere_vanishing_decompose(f, Mz, args.budget)
        except division.NotSphereIntegral as exc:
            _emit({"kind": "witness", "witness": str(exc.witness)}, args.out)
            return EXIT_SECOND
        _emit(
            {"kind": "decomposition", "Q0": q0, "R": [r.to_json() for r in rs]},
            args.out,
        )
        return EXIT_FIRST
    if kind == "sphere-periodic":
        try:
            q0, c, r0, rs = division.sphere_periodic_decompose(f, Mz, args.budget)
        except division.NotPartiallyPeriodic as exc:
            _emit({"kind": "witness", "witness": str(exc.witness)}, args.out)
            return EXIT_SECOND
        _emit(
            {
                "kind": "decomposition",
                "Q0": q0,
                "C": f"{c.numerator}/{c.denominator}",
                "R0": r0.to_json(),
                "R": {str(i): r.to_json() for i, r in rs.items()},
            },
            args.out,
        )
        return EXIT_FIRST
    raise InputError(f"unknown decomposition kind {kind!r}")


def cmd_mset_repr(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    family, k = msets.family_from_json(M, data["family"])
    try:
        rep = msets.standard_rep(family, M, k)
    except NotConsistent as exc:
        _emit({"error": "not consistent", "detail": str(exc)}, args.out)
        return EXIT_SECOND
    _emit(rep.to_json(), args.out)
    return EXIT_FIRST


def cmd_fubini_check(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    family, k = msets.family_from_json(M, data["family"])
    rng = random.Random(args.seed)
    table = {}

    if data.get("f") == "one":
        func = lambda x: 1
    else:
        def func(x):
            if x not in table:
                table[x] = rng.choice((-1, 1))
            return table[x]

    lhs, rhs, diff = msets.fubini_check(family, M, k, data.get("kprime", 1), func, args.budget)
    bound = 4 * M.p**-0.5
    _emit(
        {
            "lhs": float(lhs),
            "rhs": float(rhs),
            "diff": float(diff),
            "bound": bound,
            "pass": float(diff) <= bound,
        },
        args.out,
    )
    return EXIT_FIRST


def cmd_irreducibility_probe(args):
    data = _load_json(args.json)
    M = _quadform(data["form"])
    family, k = msets.family_from_json(M, data["family"])
    rng = random.Random(args.seed)
    verdicts = msets.irreducibility_probe(
        family, M, k, args.s, args.delta, args.trials, rng, args.budget
    )
    middle = [v for v in verdicts if v["verdict"] == "middle_ground"]
    counts = {}
    for v in verdicts:
        counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
    _emit(
        {"counts": counts, "middle_ground": middle, "trials": args.trials, "delta": args.delta},
        args.out,
    )
    return EXIT_FIRST if not middle else EXIT_SECOND


def cmd_equidist(args):
    data = _load_json(args.json)
    g = equidist.TorusPolySeq.from_json(data["sequence"])
    omega = equidist.sphere_points(args.prime, g.d, data.get("radius", 0), args.budget)
    K = args.freq_budget or max(1, min(1000, int(args.delta**-2) + 1))
    rep = equidist.equidist_test(g, omega, args.delta, K)
    report = rep.to_json()
    report["K"] = K
    _emit(report, args.out)
    return EXIT_FIRST if rep.verdict == "equidistributed" else EXIT_SECOND


def cmd_weyl(args):
    data = _load_json(args.json)
    g = _rat_poly(data["poly"])
    out = equidist.weyl_dichotomy(g, args.prime, data.get("radius", 0), args.delta, args.budget)
    report = out.to_json()
    report["delta"] = args.delta
    _emit(report, args.out)
    return EXIT_FIRST if out.branch == "sum_small" else EXIT_SECOND


def cmd_leibman_probe(args):
    data = _load_json(args.json) if args.json else {}
    rng = random.Random(args.seed)
    d = data.get("dim", args.dim)
    s = data.get("s", 2)
    K = args.freq_budget or 20
    res = equidist.leibman_probe(
        args.prime, d, data.get("radius", 1), s, args.delta, args.trials, K, rng, args.budget
    )
    _emit(res, args.out)
    return EXIT_FIRST if not res["violations"] else EXIT_SECOND


COMMANDS = {
    "normalize": cmd_normalize,
    "count": cmd_count,
    "expsum": cmd_expsum,
    "gowers": cmd_gowers,
    "divide": cmd_divide,
    "nullstellensatz": cmd_nullstellensatz,
    "dichotomy": cmd_dichotomy,
    "decompose": cmd_decompose,
    "mset-repr": cmd_mset_repr,
    "fubini-check": cmd_fubini_check,
    "irreducibility-probe": cmd_irreducibility_probe,
    "equidist": cmd_equidist,
    "weyl": cmd_weyl,
    "leibman-probe": cmd_leibman_probe,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherefp",
        description="Quadratic forms, spherical counting, division certificates "
        "and equidistribution checks over prime fields.",
    )
    parser.add_argument("--prime", type=int, default=5)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delta", type=float, default=0.3)
    parser.add_argument("--freq-budget", type=int, default=0)
    parser.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="accepted for interface stability; all reductions are "
        "order-independent so the output does not depend on it",
    )
    parser.add_argument("--json", help="input JSON file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--s", type=int, default=1, help="degree / Gowers level")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--kind", default="intrinsic", help="decomposition kind")
    parser.add_argument("command", choices=sorted(COMMANDS))
    return parser


def _validate(args):
    """Reject numeric flags out of range before any work starts."""
    floors = [
        ("--budget", args.budget, 1),
        ("--trials", args.trials, 1),
        ("--s", args.s, 0),
        ("--freq-budget", args.freq_budget, 0),
    ]
    for flag, value, low in floors:
        if value < low:
            raise InputError(f"{flag} must be at least {low}, got {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return COMMANDS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except TheoremViolation as exc:
        sys.stderr.write(f"theorem violation: {exc}\n")
        return EXIT_INTERNAL
    except Exception:  # NoSolution, DichotomyViolation or a bug: never a branch code
        sys.stderr.write(f"internal error:\n{traceback.format_exc()}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
