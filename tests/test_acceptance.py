"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are the stated ones: O(.) bounds use the explicit constant 4,
symbolic identities use zero tolerance, and the two statistical criteria
carry their stated sample counts and thresholds.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from spherefp.counting import (
    all_points,
    enumerate_zeros,
    exp_sum,
    gauss_sum,
    gowers_set,
)
from spherefp.division import (
    NotPartiallyPeriodic,
    NotSphereIntegral,
    ZpQuadForm,
    bij_division,
    dichotomy,
    first_gowers_witness,
    gowers_equation_solve,
    intrinsic_decompose,
    lift_nullstellensatz,
    nullstellensatz,
    reduce_mod_form,
    sphere_periodic_decompose,
    sphere_vanishing_decompose,
    _cube_difference,
)
from spherefp.equidist import DichotomyViolation, sphere_points, weyl_dichotomy
from spherefp.ffcore import PrimeField
from spherefp.fpoly import (
    FpMultiPoly,
    RatMultiPoly,
    compose_liftings,
    induce,
    regular_lift,
)
from spherefp.msets import (
    MQuadFn,
    _monomials_up_to,
    fubini_check,
    fubini_prepare,
    gowers_family,
    irreducibility_probe,
)
from spherefp.quadform import QuadForm, qf_rank

from conftest import random_form, random_fp_poly, random_int_valued, random_zp_valued


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def dense_poly(p, nvars, s, rng):
    return FpMultiPoly(p, nvars, {e: rng.randrange(p) for e in _monomials_up_to(nvars, s)})


def test_criterion_1_sphere_counts():
    rng = random.Random(1001)
    worst = 0.0
    checked = 0
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for d in (3, 4, 5):
            for _ in range(50):
                M = random_form(field, d, rng, min_rank=3)
                r = qf_rank(M)
                exact = len(enumerate_zeros(M))
                main = p ** (d - 1)
                bound = 4 * p ** (d - 1 - (r - 2) / 2)
                ratio = abs(exact - main) / bound
                worst = max(worst, ratio)
                checked += 1
                assert abs(exact - main) <= bound, (p, d, M.to_json())
    # pinned instance with the independent fiber-decomposition oracle
    f5 = PrimeField(5)
    M = QuadForm.dot_form(f5, 3, radius=1)
    zeros = enumerate_zeros(M)
    fibers = [int((zeros[:, 0] == x).sum()) for x in range(5)]
    ok = len(zeros) == 30 and fibers == [4, 9, 4, 4, 9]
    report(
        1,
        "sphere counts",
        ok and checked == 600,
        f"600 forms within 4 p^(d-1-(r-2)/2), worst ratio {worst:.3f}; "
        f"sphere(5,3,1) = 30 via fibers 4+9+4+4+9",
    )


def test_criterion_2_character_sums():
    rng = random.Random(1002)
    worst = 0.0
    total = 0
    for p in (5, 7):
        field = PrimeField(p)
        table = np.exp(2j * np.pi * np.arange(p) / p)
        for d in (3, 4):
            forms = [QuadForm.dot_form(field, d, radius=1)]
            while len(forms) < 4:
                forms.append(random_form(field, d, rng, min_rank=3))
            xis = all_points(p, d)[1:]
            for M in forms:
                r = qf_rank(M)
                bound = 4 * p ** (-(r - 2) / 2)
                pts = enumerate_zeros(M)
                phases = (pts @ xis.T) % p
                means = np.abs(table[phases].mean(axis=0))
                assert (means <= bound + 1e-9).all(), (p, d, M.to_json())
                worst = max(worst, float(means.max()) / bound)
                total += len(xis)
                # spot-check the exp_sum operation against the sweep
                for idx in rng.sample(range(len(xis)), 25):
                    xi = tuple(int(x) for x in xis[idx])
                    assert abs(abs(exp_sum(M, xi)) - means[idx]) < 1e-9
    gauss_ok = all(
        abs(abs(gauss_sum(p, j)) - math.sqrt(p)) < 1e-9
        for p in (5, 7, 11, 13)
        for j in range(1, p)
    )
    report(
        2,
        "character sums",
        gauss_ok,
        f"{total} frequencies within 4 p^(-(r-2)/2), worst ratio {worst:.3f}; "
        "all Gauss sums at sqrt(p) within 1e-9",
    )


def test_criterion_3_gowers_fubini():
    f5 = PrimeField(5)
    box_ok = True
    for d in (3, 4, 5):
        M = QuadForm.dot_form(f5, d, radius=1)
        v = len(enumerate_zeros(M))
        box_ok &= gowers_set(M, 1) == v * v
    M5 = QuadForm.dot_form(f5, 5, radius=1)
    # Box_1 in the (h, n) block order so the Fubini fibers genuinely vary
    fam = [
        MQuadFn(M5, 2, {(2, 2): 1}, None, M5.v),
        MQuadFn(M5, 2, {(1, 2): 2, (1, 1): 1}),
    ]
    prepared = fubini_prepare(fam, M5, 2, 1)
    lhs, rhs, diff = fubini_check(fam, M5, 2, 1, lambda x: 1, prepared=prepared)
    exact_ok = lhs == 1 and rhs == 1 and diff == 0
    rng = random.Random(1003)
    bound = 4 * 5**-0.5
    worst = 0.0
    for trial in range(20):
        seq = random.Random(1100 + trial)

        def f(x, seq=seq):
            return seq.choice((-1, 1))

        _, _, diff = fubini_check(fam, M5, 2, 1, f, prepared=prepared)
        worst = max(worst, float(diff))
        assert float(diff) <= bound
    report(
        3,
        "Gowers/Fubini",
        box_ok and exact_ok,
        f"|Box1| = |V|^2 at d in {{3,4,5}}; 20 pm-1 Fubini diffs <= {bound:.3f} "
        f"(worst {worst:.4f}); f = 1 exact",
    )


def test_criterion_4_division_certificates():
    rng = random.Random(1004)
    f7 = PrimeField(7)
    M = QuadForm.dot_form(f7, 4, radius=2)
    mp = M.as_poly()
    for _ in range(200):
        R = random_fp_poly(7, 4, rng.randint(0, 2), rng)
        P = mp * R
        cert = bij_division(P, M)
        assert cert.verify() and cert.remainder_is_zero()
        assert mp * cert.divisor_multiple() == P
    outcomes = {"certificate": 0, "witness": 0}
    for _ in range(200):
        P = random_fp_poly(7, 4, 3, rng)
        if P.is_zero():
            P = FpMultiPoly.constant(7, 4, 1)
        kind, payload = nullstellensatz(P, M)
        outcomes[kind] += 1
        if kind == "certificate":
            assert mp * payload == P
        else:
            assert M.evaluate(list(payload)) == 0 and P.evaluate(list(payload)) != 0
    report(
        4,
        "division certificates",
        True,
        f"200 multiples re-divide with zero remainder; 200 random: "
        f"{outcomes['certificate']} certificates, {outcomes['witness']} witnesses",
    )


def test_criterion_5_dichotomy():
    rng = random.Random(1005)
    middle = 0
    for p in (5, 7):
        field = PrimeField(p)
        M = QuadForm.dot_form(field, 4, radius=1)
        mp = M.as_poly()
        zeros = enumerate_zeros(M)
        threshold = 4 * p ** (4 - 2)
        for trial in range(100):
            if trial % 5 == 4:
                P = mp * random_fp_poly(p, 4, 0, rng)  # constructed multiple
                if P.is_zero():
                    P = mp
            else:
                P = dense_poly(p, 4, 3, rng)
            count = int((P.eval_array(zeros) == 0).sum())
            contained = count == len(zeros)
            if not contained and count > threshold:
                middle += 1
            if contained and P.degree() <= (p - 1) // 2:
                verdict = dichotomy(P, M, 1.0)
                assert verdict.kind == "contained"
    report(
        5,
        "dichotomy",
        middle == 0,
        "exhaustive at p in {5,7}, d = 4: every draw lands in Contained or "
        "count <= 4 p^(d-2); zero middle ground",
    )


def _random_zp_pair(p, d, deg, rng):
    F = random_fp_poly(p, d, deg, rng)
    f = regular_lift(F) + random_int_valued(d, deg, rng)
    return F, f


def test_criterion_6_lifting_laws():
    checked = {k: 0 for k in "i ii iii iv v vi".split()}
    for p in (5, 7, 11, 13):
        rng = random.Random(1006 + p)
        d = 2
        pts = [(x, y) for x in range(p) for y in range(p)]
        sample = rng.sample(pts, min(40, len(pts)))
        for _ in range(500):
            # (i) induced polynomial: degree, homogeneity, pointwise values
            F, f = _random_zp_pair(p, d, min(4, (p - 1) // 2), rng)
            Find = induce(f, p)
            assert Find == F  # f = regular_lift(F) + integer valued
            assert Find.degree() <= max(f.degree(), -1)
            checked["i"] += 1

            # (ii) regular lifting: coefficients, degree, roundtrip,
            # homogeneity preserved both ways
            lift = regular_lift(F)
            assert induce(lift, p) == F
            assert all(c.denominator in (1, p) and 0 <= c < 1 for c in lift.terms.values())
            assert lift.degree() == F.degree()
            Fh = random_fp_poly(p, d, 3, rng).homogeneous_part(2)
            lh = regular_lift(Fh)
            assert not lh.terms or {sum(e) for e in lh.terms} == {2}
            assert induce(lh, p).is_homogeneous()
            checked["ii"] += 1

            # (iii) liftings of F differ exactly by integer valued polynomials
            g = random_int_valued(d, 3, rng)
            assert induce(lift + g, p) == F
            assert ((lift + g) - lift).is_integer_valued()
            checked["iii"] += 1

            # (iv) sums and products, degrees at most (p-1)/2
            deg4 = (p - 1) // 2
            F1, f1 = _random_zp_pair(p, d, deg4, rng)
            F2, f2 = _random_zp_pair(p, d, deg4, rng)
            assert induce(f1 + f2, p) == F1 + F2
            assert induce((f1 * f2).scale(p), p) == F1 * F2
            checked["iv"] += 1

            # (v) composition at degrees below sqrt(p)
            degv = 2 if p < 11 else 3
            Fa = random_fp_poly(p, 1, degv, rng)
            fa = regular_lift(Fa)
            Fb = random_fp_poly(p, 1, degv, rng)
            fb = regular_lift(Fb)
            comp = compose_liftings(fb, fa, p)
            FbFa = Fb.substitute([Fa])
            assert induce(comp, p) == FbFa
            checked["v"] += 1

            # (vi) tau(F(n)) = p f(tau n) mod p Z, pointwise
            for n in rng.sample(sample, 6):
                lhs = F.evaluate(list(n))
                rhs = f.evaluate(list(n)) * p
                assert rhs.denominator == 1
                assert (lhs - rhs) % p == 0
            checked["vi"] += 1
    report(
        6,
        "lifting laws",
        all(v == 2000 for v in checked.values()),
        "properties (i)-(vi) hold exactly on 500 draws for each p in {5,7,11,13}",
    )


def test_criterion_7_decomposition_solvers():
    rng = random.Random(1007)
    f5 = PrimeField(5)

    # --- intrinsic decomposition, p = 5, d = 5, s = 2
    M = QuadForm.dot_form(f5, 5, radius=1)
    mp = M.as_poly()
    for _ in range(100):
        g1 = FpMultiPoly.constant(5, 5, rng.randrange(5))
        g2 = random_fp_poly(5, 5, 1, rng)
        g = mp * g1 + g2
        kind, a, b = intrinsic_decompose(g, M, 2)
        assert kind == "decomposition" and mp * a + b == g
        assert a.degree() <= 0 and b.degree() <= 1
    adversarial = 0
    guard = 0
    while adversarial < 100:
        guard += 1
        assert guard < 2000
        g = random_fp_poly(5, 5, 2, rng)
        if reduce_mod_form(g, M, 1) is not None:
            continue
        kind, cube = intrinsic_decompose(g, M, 2)
        assert kind == "witness"
        n, h1, h2 = cube
        assert _cube_difference(g, n, [h1, h2]) != 0
        adversarial += 1

    # --- sphere-vanishing decomposition, p = 5, s = 4, d = 4
    Mz = ZpQuadForm.sphere(5, 4, 1)
    mz = Mz.as_ratpoly()
    for _ in range(100):
        f = (
            random_int_valued(4, 4, rng)
            + mz * random_int_valued(4, 2, rng)
            + mz * mz * random_int_valued(4, 0, rng)
        )
        q0, rs = sphere_vanishing_decompose(f, Mz)
        acc = RatMultiPoly.zero(4)
        mpow = RatMultiPoly.constant(4, 1)
        for r in rs:
            assert r.is_integer_valued()
            acc = acc + mpow * r
            mpow = mpow * mz
        assert acc == f.scale(q0)
    rejected = 0
    guard = 0
    while rejected < 100:
        guard += 1
        assert guard < 2000
        bad = random_zp_valued(4, 4, rng, 5)
        try:
            sphere_vanishing_decompose(bad, Mz)
        except NotSphereIntegral as exc:
            n0, idx = exc.witness
            fiber = bad.fiber_map(list(n0), 5)
            assert fiber.binomial_coeffs()[idx].denominator != 1
            rejected += 1

    # --- sphere-periodic decomposition, p = 5, s = 4, d = 4
    for _ in range(100):
        f = (
            RatMultiPoly.constant(4, Fraction(rng.randint(0, 9), rng.choice((1, 3, 7))))
            + random_int_valued(4, 4, rng)
            + mz * random_int_valued(4, 2, rng)
            + mz * mz * random_int_valued(4, 0, rng)
        )
        q0, c, r0, rs = sphere_periodic_decompose(f, Mz)
        acc = RatMultiPoly.constant(4, c) + r0.scale(Fraction(1, 5))
        mpow = mz * mz
        for i in sorted(rs):
            assert rs[i].is_integer_valued()
            acc = acc + mpow * rs[i]
            mpow = mpow * mz
        assert r0.is_integer_valued()
        assert acc == f.scale(q0)
    rejected = 0
    guard = 0
    while rejected < 100:
        guard += 1
        assert guard < 2000
        bad = random_rat_deep(rng)
        try:
            sphere_periodic_decompose(bad, Mz)
        except NotPartiallyPeriodic as exc:
            n0, idx = exc.witness
            fiber = bad.fiber_map(list(n0), 5)
            assert fiber.binomial_coeffs()[idx].denominator != 1
            rejected += 1

    # --- Gowers-cube equation, s = 1, p = 5, d = 4
    M4 = QuadForm.dot_form(f5, 4, radius=1)
    mp4 = M4.as_poly()
    for _ in range(100):
        P = mp4 * random_fp_poly(5, 4, 0, rng)
        Q = mp4 * random_fp_poly(5, 4, 1, rng) + FpMultiPoly.constant(5, 4, rng.randrange(5))
        res = gowers_equation_solve(P, Q, M4, 1)
        assert res[0] == "factorization"
        _, p1, p2, q1, q2 = res
        assert mp4 * p1 + p2 == P and mp4 * q1 + q2 == Q
        assert p2.degree() <= -1 and q2.degree() <= 0
    witnesses = 0
    guard = 0
    while witnesses < 100:
        guard += 1
        assert guard < 2000
        P = random_fp_poly(5, 4, 2, rng)
        Q = random_fp_poly(5, 4, 3, rng)
        res = gowers_equation_solve(P, Q, M4, 1)
        if res[0] != "witness":
            continue
        n, h = res[1]
        m = [(n[i] + h[i]) % 5 for i in range(4)]
        assert M4.evaluate(list(n)) == 0 and M4.evaluate(m) == 0
        assert (P.evaluate(list(n)) + Q.evaluate(m) - Q.evaluate(list(n))) % 5 != 0
        witnesses += 1

    report(
        7,
        "decomposition solvers",
        True,
        "100 forward + 100 adversarial instances for each of the intrinsic, "
        "sphere-vanishing, sphere-periodic and cube-equation solvers, all "
        "verified by substitution or explicit witnesses",
    )


def random_rat_deep(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = [0] * 4
        for _ in range(rng.randint(0, 4)):
            e[rng.randrange(4)] += 1
        terms[tuple(e)] = Fraction(rng.randint(1, 24), rng.choice((5, 25)))
    return RatMultiPoly(4, terms)


def test_criterion_8_irreducibility_probe():
    results = {}
    for p in (7, 11):
        field = PrimeField(p)
        # V(M): K = 1, r = 1, needs d >= 3; run at d = 4
        M = QuadForm.dot_form(field, 4, radius=1)
        fam = [MQuadFn(M, 1, {(1, 1): 1}, [M.u[:]], M.v)]
        rng = random.Random(1008 + p)
        verdicts = irreducibility_probe(fam, M, 1, 3, 0.3, 500, rng)
        mid = sum(v["verdict"] == "middle_ground" for v in verdicts)
        results[(p, "V(M)")] = mid
        # Box_1 shape: K = 2, r = 2, needs d >= 7
        M7 = QuadForm.dot_form(field, 7, radius=1)
        fam7 = gowers_family(M7, 1)
        rng = random.Random(2008 + p)
        verdicts = irreducibility_probe(fam7, M7, 2, 3, 0.3, 500, rng, samples=1500)
        mid = sum(v["verdict"] == "middle_ground" for v in verdicts)
        results[(p, "Box1")] = mid
    ok = all(v == 0 for v in results.values())
    report(
        8,
        "irreducibility probe",
        ok,
        "500 polynomials per configuration at delta = 0.3, zero middle "
        f"ground in every run: {sorted(results.items())}",
    )


def test_criterion_9_weyl_leibman():
    rng = random.Random(1009)
    # 100 constructed Constant-branch instances with recovered certificates
    p, d, r = 7, 4, 1
    Mz = ZpQuadForm.sphere(p, d, r)
    npoly = Mz.integer_poly()
    omega = sphere_points(p, d, r)
    for _ in range(100):
        g1 = random_int_valued(d, 1, rng)
        g2 = random_int_valued(d, 2, rng)
        a = rng.randrange(p)
        g = npoly * g1 + g2.scale(p) + RatMultiPoly.constant(d, a)
        out = weyl_dichotomy(g, p, r, 0.5, omega=omega)
        assert out.branch == "constant" and out.value == 1.0
        assert npoly * out.g1 + out.g2.scale(p) + RatMultiPoly.constant(d, a) == g
    # statistical criterion at p = 11, d = 5, r = 1
    omega11 = sphere_points(11, 5, 1)
    small = 0
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(2, 10)):
            e = [0] * 5
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(5)] += 1
            terms[tuple(e)] = rng.randrange(1, 11)
        g = RatMultiPoly(5, terms)
        try:
            out = weyl_dichotomy(g, 11, 1, 0.5, omega=omega11)
            small += out.branch == "sum_small"
        except DichotomyViolation:
            pass
    report(
        9,
        "Weyl/Leibman dichotomy",
        small >= 95,
        f"100 constructed instances: |sum| = 1 with verified certificates; "
        f"random instances with |sum| <= 0.5: {small}/100 (needs >= 95)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import json as _json

    sphere = tmp_path / "sphere.json"
    sphere.write_text(
        _json.dumps({"p": 5, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0, 0, 0], "v": 4})
    )
    lin = tmp_path / "dich.json"
    lin.write_text(
        _json.dumps(
            {
                "form": {"p": 5, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0, 0, 0], "v": 4},
                "poly": {"nvars": 3, "terms": [{"exp": [1, 0, 0], "coeff": 1}]},
            }
        )
    )
    battery = [
        ["count", "--json", str(sphere)],
        ["normalize", "--json", str(sphere)],
        ["gowers", "--json", str(sphere), "--s", "1"],
        ["dichotomy", "--json", str(lin), "--delta", "0.4"],
        ["leibman-probe", "--prime", "5", "--dim", "3", "--seed", "42", "--trials", "4"],
    ]
    identical = True
    clean = True  # identical crashes must not pass as determinism
    for args in battery:
        outputs = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "spherefp.cli"] + args,
                capture_output=True,
                text=True,
            )
            outputs.add(proc.stdout)
            clean &= proc.returncode == 0 and proc.stdout != ""
        identical &= len(outputs) == 1
    report(
        10,
        "determinism",
        identical and clean,
        "CLI battery byte-identical across repeated runs, "
        "every run exit 0 with non-empty output",
    )
