"""Command-line frontend: JSON in, JSON certificates and reports out.

Exit codes: 0 first branch / success, 1 second branch / witness found.
Any other code is the exit_code of the ffcore.SpherefpError raised: 2 input
error, 3 budget exceeded, 4 theorem violation, 5 hypothesis not met.  Any
error raised while reading the input is an input error; after parsing
nothing is converted, and an exception from outside the library is a crash,
printed with its traceback, exit 4.  Each cmd_* returns (report, exit
code) and writes nothing; main writes the report once, through _emit.
Reports are canonical JSON (sorted keys, fixed separators) so identical
seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from contextlib import contextmanager
from operator import index

from . import counting, division, equidist, msets
from .ffcore import MalformedInput, SpherefpError
from .fpoly import FpMultiPoly, RatMultiPoly
from .msets import NotConsistent
from .quadform import AffineSubspace, QuadForm, normalize

SCHEMA = "sphere-hofa/1"

EXIT_FIRST = 0
EXIT_SECOND = 1
EXIT_INTERNAL = SpherefpError.exit_code


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


@contextmanager
def _reading_input():
    """The one parse guard: any error raised while reading outside input
    (the JSON file, a field lookup, a from_json) is an input error."""
    try:
        yield
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"{type(exc).__name__}: {exc}") from None


def _no_float(text):
    raise MalformedInput(f"number {text} is not an integer; write a fraction as an \"a/b\" string")


def _no_bool(obj):
    """No input field is a boolean, and bool is an int subclass that every
    integer check would let through as 0 or 1."""
    if isinstance(obj, bool):
        raise MalformedInput(f"{json.dumps(obj)} is not an integer")
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            _no_bool(item)


def _load_json(path):
    if path is None:
        raise MalformedInput("missing --json input file")
    with open(path) as fh:
        data = json.load(fh, parse_float=_no_float, parse_constant=_no_float)
    _no_bool(data)
    return data


def _same_arity(d, polys):
    if any(P.nvars != d for P in polys):
        raise MalformedInput(f"polynomial nvars differs from the form's d = {d}")


def _form_and_polys(args, *keys):
    """The F_p form under "form" and the F_p polynomial under each key."""
    with _reading_input():
        data = _load_json(args.json)
        M = QuadForm.from_json(data["form"])
        polys = [FpMultiPoly.from_json(M.p, data[key]) for key in keys]
        _same_arity(M.d, polys)
    return (M, *polys)


def cmd_normalize(args):
    with _reading_input():
        M = QuadForm.from_json(_load_json(args.json))
    cert = normalize(M)
    return {**cert.to_json(), "verified": cert.verify()}, EXIT_FIRST


def cmd_count(args):
    with _reading_input():
        data = _load_json(args.json)
        M = QuadForm.from_json(data["form"] if "form" in data else data)
        S = None
        if isinstance(data, dict) and data.get("subspace"):
            S = AffineSubspace.from_json(M.field, data["subspace"])
    return counting.zero_count_check(M, S).to_json(), EXIT_FIRST


def cmd_expsum(args):
    with _reading_input():
        data = _load_json(args.json)
        M = QuadForm.from_json(data["form"])
        xi = [index(x) for x in data["xi"]]
    value = counting.exp_sum(M, xi, args.budget)
    bound = counting.exp_sum_bound(M) if any(x % M.p for x in xi) else 1.0
    report = {"re": value.real, "im": value.imag, "abs": abs(value), "bound": bound}
    report["pass"] = report["abs"] <= bound + 1e-9
    return report, EXIT_FIRST


def cmd_gowers(args):
    with _reading_input():
        data = _load_json(args.json)
        M = QuadForm.from_json(data["form"] if "form" in data else data)
    return counting.gowers_count_report(M, args.s, None, args.budget).to_json(), EXIT_FIRST


def cmd_divide(args):
    M, P = _form_and_polys(args, "poly")
    cert = division.bij_division(P, M)
    return {**cert.to_json(), "verified": cert.verify()}, EXIT_FIRST


def cmd_nullstellensatz(args):
    M, P = _form_and_polys(args, "poly")
    kind, payload = division.nullstellensatz(P, M, args.budget)
    if kind == "certificate":
        return {"kind": "certificate", "quotient": payload.to_json()}, EXIT_FIRST
    return {"kind": "witness", "point": list(payload)}, EXIT_SECOND


def cmd_dichotomy(args):
    M, P = _form_and_polys(args, "poly")
    verdict = division.dichotomy(P, M, args.delta, args.budget)
    return {**verdict.to_json(), "delta": args.delta}, EXIT_FIRST if verdict.kind == "small" else EXIT_SECOND


def cmd_decompose(args):
    kind = args.kind
    if kind == "intrinsic":
        M, g = _form_and_polys(args, "poly")
        res = division.intrinsic_decompose(g, M, args.s, args.budget)
        if res[0] == "decomposition":
            return {"kind": "decomposition", "g1": res[1].to_json(), "g2": res[2].to_json()}, EXIT_FIRST
        return {"kind": "witness", "cube": [list(x) for x in res[1]]}, EXIT_SECOND
    if kind == "gowers-equation":
        M, P, Q = _form_and_polys(args, "P", "Q")
        res = division.gowers_equation_solve(P, Q, M, args.s, args.budget)
        if res[0] == "factorization":
            P1, P2, Q1, Q2 = (r.to_json() for r in res[1:])
            return {"kind": "factorization", "P1": P1, "P2": P2, "Q1": Q1, "Q2": Q2}, EXIT_FIRST
        return {"kind": "witness", "cube": [list(x) for x in res[1]]}, EXIT_SECOND
    with _reading_input():
        data = _load_json(args.json)
        Mz = division.ZpQuadForm.from_json(data["form"])
        f = RatMultiPoly.from_json(data["poly"])
        _same_arity(Mz.d, [f])
    if kind == "lift-nullstellensatz":
        try:
            p1, p0 = division.lift_nullstellensatz(f, Mz, args.budget)
        except division.WitnessFound as exc:
            return {"kind": "witness", "point": list(exc.witness)}, EXIT_SECOND
        return {"kind": "certificate", "P1": p1.to_json(), "P0": p0.to_json()}, EXIT_FIRST
    if kind == "sphere-vanishing":
        try:
            q0, rs = division.sphere_vanishing_decompose(f, Mz, args.budget)
        except division.NotSphereIntegral as exc:
            return {"kind": "witness", "witness": str(exc.witness)}, EXIT_SECOND
        return {"kind": "decomposition", "Q0": q0, "R": [r.to_json() for r in rs]}, EXIT_FIRST
    if kind == "sphere-periodic":
        try:
            q0, c, r0, rs = division.sphere_periodic_decompose(f, Mz, args.budget)
        except division.NotPartiallyPeriodic as exc:
            return {"kind": "witness", "witness": str(exc.witness)}, EXIT_SECOND
        report = {
            "kind": "decomposition",
            "Q0": q0,
            "C": f"{c.numerator}/{c.denominator}",
            "R0": r0.to_json(),
            "R": {str(i): r.to_json() for i, r in rs.items()},
        }
        return report, EXIT_FIRST
    raise MalformedInput(f"unknown decomposition kind {kind!r}")


def _form_and_family(args):
    """The F_p form under "form", the M-set family under "family" with its
    k, and the whole input for further fields."""
    with _reading_input():
        data = _load_json(args.json)
        M = QuadForm.from_json(data["form"])
        family, k = msets.family_from_json(M, data["family"])
    return M, family, k, data


def cmd_mset_repr(args):
    M, family, k, _ = _form_and_family(args)
    try:
        rep = msets.standard_rep(family, M, k)
    except NotConsistent as exc:
        return {"error": "not consistent", "detail": str(exc)}, EXIT_SECOND
    return rep.to_json(), EXIT_FIRST


def cmd_fubini_check(args):
    M, family, k, data = _form_and_family(args)
    with _reading_input():
        all_ones = data.get("f") == "one"
        kprime = index(data.get("kprime", 1))
    rng = random.Random(args.seed)
    table = {}

    if all_ones:
        func = lambda x: 1
    else:
        def func(x):
            if x not in table:
                table[x] = rng.choice((-1, 1))
            return table[x]

    lhs, rhs, diff = msets.fubini_check(family, M, k, kprime, func, args.budget)
    bound = 4 * M.p**-0.5
    report = {"lhs": float(lhs), "rhs": float(rhs), "diff": float(diff), "bound": bound}
    report["pass"] = report["diff"] <= bound
    return report, EXIT_FIRST


def cmd_irreducibility_probe(args):
    M, family, k, _ = _form_and_family(args)
    rng = random.Random(args.seed)
    verdicts = msets.irreducibility_probe(
        family, M, k, args.s, args.delta, args.trials, rng, args.budget
    )
    middle = [v for v in verdicts if v["verdict"] == "middle_ground"]
    counts = {}
    for v in verdicts:
        counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
    report = {"counts": counts, "middle_ground": middle, "trials": args.trials, "delta": args.delta}
    return report, EXIT_FIRST if not middle else EXIT_SECOND


def cmd_equidist(args):
    with _reading_input():
        data = _load_json(args.json)
        g = equidist.TorusPolySeq.from_json(data["sequence"])
        radius = index(data.get("radius", 0))
    omega = equidist.sphere_points(args.prime, g.d, radius, args.budget)
    K = args.freq_budget or max(1, min(1000, int(args.delta**-2) + 1))
    rep = equidist.equidist_test(g, omega, args.delta, K)
    return {**rep.to_json(), "K": K}, EXIT_FIRST if rep.verdict == "equidistributed" else EXIT_SECOND


def cmd_weyl(args):
    with _reading_input():
        data = _load_json(args.json)
        g = RatMultiPoly.from_json(data["poly"])
        radius = index(data.get("radius", 0))
    out = equidist.weyl_dichotomy(g, args.prime, radius, args.delta, args.budget)
    return {**out.to_json(), "delta": args.delta}, EXIT_FIRST if out.branch == "sum_small" else EXIT_SECOND


def cmd_leibman_probe(args):
    with _reading_input():
        data = _load_json(args.json) if args.json else {}
        d = index(data.get("dim", args.dim))
        s = index(data.get("s", 2))
        radius = index(data.get("radius", 1))
    rng = random.Random(args.seed)
    K = args.freq_budget or 20
    res = equidist.leibman_probe(args.prime, d, radius, s, args.delta, args.trials, K, rng, args.budget)
    return res, EXIT_FIRST if not res["violations"] else EXIT_SECOND


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
            raise MalformedInput(f"{flag} must be at least {low}, got {value}")
    counting._check_delta(args.delta, "--delta")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        report, code = COMMANDS[args.command](args)
        _emit(report, args.out)
        return code
    except SpherefpError as exc:
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code
    except Exception:  # a bug: never a branch code
        sys.stderr.write(f"internal error:\n{traceback.format_exc()}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
