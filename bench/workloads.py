"""The four benchmark workloads: seeded generators, the library call that
makes one instance, and the benchmark's own check of each verdict.

An instance is one call into a public decision function (or one CLI
invocation) that returns a verdict, certificate or witness.  Instance i of
a workload is drawn from random.Random(f"{workload}/{seed}/{i}"), so the
program only ever sees generated inputs, and the same seed gives the same
inputs.  Instances run in rounds; a round is one pass over the workload's
basket of (kind, parameters) entries, so every run measures the same mix.

Every generator knows its answer in advance (branch, exact count, or that a
typed rejection must come back), from a construction or from brute force
in bench/check.py.  `check_*` re-checks certificates by substitution and
witnesses by evaluation, raises Mismatch on any miss, and returns the
verdict-bearing fields that the output-stability hash covers.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from check import (
    all_points,
    binom_values_mod_p,
    degree,
    fiber_coefficient,
    form_values,
    fp_value,
    fp_values,
    has_integer_coefficients,
    is_integer_valued,
    rank_mod_p,
    rat_identity,
    rat_value,
    simplex_grid,
    sphere_zeros,
)
from spherefp import counting, division, equidist, ffcore, fpoly, msets, quadform


class Mismatch(Exception):
    """A verdict that differs from the known answer or fails its check."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def terms_key(poly):
    return sorted([list(e), str(c)] for e, c in poly.terms.items())


# -- generators ------------------------------------------------------------------


def identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def sphere_data(d, radius, p):
    return identity(d), [0] * d, (-radius) % p


def rand_form(rng, p, d, min_rank):
    while True:
        A = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                A[i][j] = A[j][i] = rng.randrange(p)
        if rank_mod_p(A, p) >= min_rank:
            return A, [rng.randrange(p) for _ in range(d)], rng.randrange(p)


def sphere_image(rng, p, d):
    """M(n) = (nS + c).(nS + c) - r for random invertible S, shift c and a
    radius r whose class fixes |V(M)|; so the sizes, and the cost of
    enumerating Box_s, do not vary from draw to draw."""
    while True:
        S = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if rank_mod_p(S, p) == d:
            break
    c = [rng.randrange(p) for _ in range(d)]
    # |x.x = r| depends on r only through the quadratic character of
    # (-1)^((d-1)/2) r for odd d; pick r with that character equal to +1
    sign = (-1) ** ((d - 1) // 2)
    r = rng.choice([r for r in range(1, p) if pow(sign * r % p, (p - 1) // 2, p) == 1])
    A = [[sum(S[i][k] * S[j][k] for k in range(d)) % p for j in range(d)] for i in range(d)]
    u = [2 * sum(S[i][k] * c[k] for k in range(d)) % p for i in range(d)]
    return A, u, (sum(x * x for x in c) - r) % p


def make_form(p, A, u, v):
    return quadform.QuadForm(ffcore.PrimeField(p), A, u, v)


def sparse_terms(rng, p, d, s, nterms=8):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = [0] * d
        for _ in range(rng.randint(0, s)):
            e[rng.randrange(d)] += 1
        terms[tuple(e)] = rng.randrange(p)
    return terms


def dense_terms(rng, p, d, s):
    return {e: rng.randrange(p) for e in simplex_grid(d, s)}


def fp_poly(p, d, terms):
    return fpoly.FpMultiPoly(p, d, terms)


def int_valued(rng, d, s, nterms=6):
    coeffs = {}
    for _ in range(rng.randint(1, nterms)):
        idx = [0] * d
        for _ in range(rng.randint(0, s)):
            idx[rng.randrange(d)] += 1
        coeffs[tuple(idx)] = rng.randint(-9, 9)
    return fpoly.RatMultiPoly.from_binomial(d, coeffs)


def lucas_bad_part(rng, p, d, zeros, s):
    """sum_k a_k C(n, idx_k) / p, non-integral somewhere on n0 + pZ^d for some
    n0 in zeros: by Lucas, C(n0 + p m, i) = C(n0, i) mod p when all i_j < p."""
    while True:
        idxs, coeffs = [], []
        for _ in range(rng.randint(1, 3)):
            idx = [0] * d
            for _ in range(rng.randint(1, s)):
                idx[rng.randrange(d)] += 1
            idxs.append(tuple(idx))
            coeffs.append(rng.randrange(1, p))
        if binom_values_mod_p(idxs, coeffs, p, zeros).any():
            return fpoly.RatMultiPoly.from_binomial(
                d, {i: Fraction(c, p) for i, c in zip(idxs, coeffs)}
            )


def sphere_rat(p):
    """m -> (m.m - 1)/p, the Z/p-valued radius-1 sphere form."""
    return lambda m: Fraction(sum(x * x for x in m) - 1, p)


def rat_fn(poly):
    return lambda m: rat_value(poly.terms, m)


def check_fp_identity(p, d, deg, lhs, rhs, what):
    """lhs(pts) == rhs(pts) mod p on the simplex grid; an identity of
    polynomials when both sides have degree <= deg < p."""
    expect(deg < p, f"{what}: degree {deg} too high to decide by evaluation")
    pts = np.array(simplex_grid(d, max(deg, 0)), dtype=np.int64)
    expect(np.array_equal(lhs(pts) % p, rhs(pts) % p), what)


def in_zero_set(A, u, v, p, pt):
    return int(form_values(A, u, v, p, np.array([pt], dtype=np.int64))[0]) == 0


# -- boxsets -------------------------------------------------------------------


class Boxsets:
    """Large point sets evaluated many times: exact Box_s counts, Fubini
    checks on the prepared 422,500-point Box_1 family at p=5, d=5, and the
    irreducibility probe (sampled on Box_1 at d=7, exact on V(M))."""

    # one Fubini call costs about as much as two of every other kind, so the
    # others appear twice per round; a third Box_2 count puts the median
    # latency in the middle of one kind instead of between two
    _others = [("gowers", (d, s)) for d, s in ((3, 1), (4, 1), (5, 1), (3, 2))] + [
        ("probe", (name,)) for name in ("box1_p7", "box1_p11", "vm_p11")
    ]
    basket = _others + [("fubini", ()), ("gowers", (3, 2))] + _others
    probe_expected = ["small"] * 8 + ["contained", "small"]

    def library_setup(self):
        M5 = quadform.QuadForm.dot_form(ffcore.PrimeField(5), 5, radius=1)
        self.M5 = M5
        # Box_1 in the (h, n) block order, so the Fubini fibers vary
        self.fam5 = [
            msets.MQuadFn(M5, 2, {(2, 2): 1}, None, M5.v),
            msets.MQuadFn(M5, 2, {(1, 2): 2, (1, 1): 1}),
        ]
        self.prepared = msets.fubini_prepare(self.fam5, M5, 2, 1)
        self.probe = {}
        for p in (7, 11):
            M7 = quadform.QuadForm.dot_form(ffcore.PrimeField(p), 7, radius=1)
            self.probe[f"box1_p{p}"] = (msets.gowers_family(M7, 1), M7, 2, 1500)
        M4 = quadform.QuadForm.dot_form(ffcore.PrimeField(11), 4, radius=1)
        fam = [msets.MQuadFn(M4, 1, {(1, 1): 1}, [M4.u[:]], M4.v)]
        self.probe["vm_p11"] = (fam, M4, 1, None)

    def bench_setup(self):
        pts, _, omega_i = self.prepared
        v5 = len(sphere_zeros(*sphere_data(5, 1, 5), 5, 5))
        changed = np.any(pts[1:, :5] != pts[:-1, :5], axis=1)
        self.starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
        self.lengths = np.diff(np.concatenate([self.starts, [len(pts)]]))
        self.omega_i = omega_i
        # |Box_1| = |V(M)|^2, and f = 1 has equal Fubini sides
        self.fubini_ok = len(pts) == v5 * v5 and len(self.starts) == omega_i
        self.vm_total = len(sphere_zeros(*sphere_data(4, 1, 11), 11, 4))

    # Box_s counts
    def gen_gowers(self, rng, d, s):
        A, u, v = sphere_image(rng, 5, d)
        zeros = sphere_zeros(A, u, v, 5, d)
        if s == 1:
            count = len(zeros) ** 2
        else:  # Box_2 by brute force: (n, m1, m2) in V^3 with m1 + m2 - n in V
            pairs = (zeros[:, None, :] + zeros[None, :, :]).reshape(-1, d)
            count = sum(int((form_values(A, u, v, 5, (pairs - n) % 5) == 0).sum()) for n in zeros)
        return {"M": make_form(5, A, u, v), "s": s}, count

    def run_gowers(self, x):
        return counting.gowers_count_report(x["M"], x["s"])

    def check_gowers(self, x, expected, rep):
        expect(rep.exact == expected, f"|Box_{x['s']}| = {rep.exact}, expected {expected}")
        return {"exact": rep.exact, "main": str(rep.main_term), "pass": bool(rep.passed)}

    # Fubini on the prepared Box_1
    def gen_fubini(self, rng):
        a = [rng.randrange(5) for _ in range(10)]
        b = rng.randrange(5)
        chi = [rng.choice((-1, 1)) for _ in range(5)]

        def f(x):
            return chi[(sum(ai * xi for ai, xi in zip(a, x)) + b) % 5]

        return {"f": f, "a": a, "b": b, "chi": chi}, None

    def run_fubini(self, x):
        return msets.fubini_check(self.fam5, self.M5, 2, 1, x["f"], prepared=self.prepared)

    def check_fubini(self, x, _, out):
        expect(self.fubini_ok, "prepared Box_1 fails |Box_1| = |V|^2 or the f = 1 identity")
        pts = self.prepared[0]
        values = np.array(x["chi"])[(pts @ np.array(x["a"]) + x["b"]) % 5]
        lhs = Fraction(int(values.sum()), len(values))
        sums = np.add.reduceat(values, self.starts)
        rhs = sum(Fraction(int(s), int(n)) for s, n in zip(sums, self.lengths)) / self.omega_i
        expect(out == (lhs, rhs, abs(lhs - rhs)), "Fubini sides differ from the recount")
        expect(float(abs(lhs - rhs)) <= 4 * 5**-0.5, "Fubini difference above 4 p^-1/2")
        return {"lhs": str(lhs), "rhs": str(rhs)}

    # irreducibility probe: one call covers the ten trial styles once
    def gen_probe(self, rng, name):
        return {"set": self.probe[name], "seed": rng.randrange(2**63)}, self.probe_expected

    def run_probe(self, x):
        fam, M, k, samples = x["set"]
        extra = {"samples": samples} if samples else {}
        return msets.irreducibility_probe(fam, M, k, 3, 0.3, 10, random.Random(x["seed"]), **extra)

    def check_probe(self, x, expected, verdicts):
        got = [v["verdict"] for v in verdicts]
        expect(got == expected, f"probe verdicts {got}")
        for v in verdicts:
            if v["mode"] == "exact":
                expect(v["total"] == self.vm_total, "probe total differs from |V(M)|")
                if v["verdict"] == "contained":
                    expect(v["count"] == v["total"], "contained without full count")
                else:
                    expect(v["count"] <= 0.3 * v["total"], "small above delta")
            elif v["verdict"] == "small":
                expect(v["ratio"] + 3 * v["sigma"] <= 0.3, "sampled small above delta")
        return verdicts


# -- lifts -----------------------------------------------------------------------


class Lifts:
    """Exact Z/p certificates on tiny point sets: sphere-vanishing and
    sphere-periodic decompositions (forward and adversarial) and the lifted
    Nullstellensatz at p=5, d=4; Weyl constant-branch certificates at p=7,
    d=4; induce/regular_lift round trips at p in {5, 7, 11, 13}."""

    # the round trips are the cheapest kind and cost alike at every p; three
    # per prime put the median latency inside their cluster instead of
    # where the Nullstellensatz, Weyl and fast witness draws overlap
    basket = [
        (kind, ()) for kind in (
            "vanish_fwd", "vanish_adv", "periodic_fwd", "periodic_adv", "lift_fwd", "lift_adv",
            "weyl_const",
        )
    ] + [("roundtrip", (p,)) for p in (5, 7, 11, 13)] * 3

    def library_setup(self):
        self.Mz = division.ZpQuadForm.sphere(5, 4, 1)
        self.mz = self.Mz.as_ratpoly()
        self.omega7 = equidist.sphere_points(7, 4, 1)
        self.npoly7 = division.ZpQuadForm.sphere(7, 4, 1).integer_poly()

    def bench_setup(self):
        self.V5 = sphere_zeros(*sphere_data(4, 1, 5), 5, 4)
        self.m5 = sphere_rat(5)

    def _forward(self, rng):
        mz = self.mz
        return int_valued(rng, 4, 4) + mz * int_valued(rng, 4, 2) + mz * mz * int_valued(rng, 4, 0)

    def _on_v5(self, n0):
        return len(n0) == 4 and all(0 <= x < 5 for x in n0) and sum(x * x for x in n0) % 5 == 1

    # sphere-vanishing
    def gen_vanish_fwd(self, rng):
        return {"f": self._forward(rng)}, "decomposition"

    def run_vanish_fwd(self, x):
        return division.sphere_vanishing_decompose(x["f"], self.Mz)

    def check_vanish_fwd(self, x, _, out):
        expect(isinstance(out, tuple), f"expected a decomposition, got {out!r}")
        q0, rs = out
        f = x["f"]
        expect(q0 % 5 != 0, "Q0 divisible by p")
        expect(all(is_integer_valued(r.terms, 4) for r in rs), "R_i not integer valued")
        m5 = self.m5
        rfs = [rat_fn(r) for r in rs]
        deg = max([degree(f.terms)] + [2 * i + degree(r.terms) for i, r in enumerate(rs)])
        expect(
            rat_identity(4, deg, lambda m: sum(m5(m) ** i * r(m) for i, r in enumerate(rfs)),
                         lambda m: q0 * rat_value(f.terms, m)),
            "Q0 f != sum M^i R_i",
        )
        return {"Q0": q0, "R": [terms_key(r) for r in rs]}

    def gen_vanish_adv(self, rng):
        return {"f": int_valued(rng, 4, 4) + lucas_bad_part(rng, 5, 4, self.V5, 4)}, "witness"

    def run_vanish_adv(self, x):
        try:
            return division.sphere_vanishing_decompose(x["f"], self.Mz)
        except division.NotSphereIntegral as exc:
            return exc

    def _check_fiber_witness(self, f, exc, cls, skip_constant):
        expect(isinstance(exc, cls), f"expected {cls.__name__}, got {exc!r}")
        n0, idx = exc.witness
        expect(self._on_v5(n0), f"witness base {n0} not on V_p(M)")
        expect(not skip_constant or any(idx), "constant index as periodicity witness")
        expect(fiber_coefficient(f.terms, n0, 5, idx).denominator != 1,
               "witness fiber coefficient is an integer")
        return {"witness": [list(n0), list(idx)]}

    def check_vanish_adv(self, x, _, out):
        return self._check_fiber_witness(x["f"], out, division.NotSphereIntegral, False)

    # sphere-periodic
    def gen_periodic_fwd(self, rng):
        c = fpoly.RatMultiPoly.constant(4, Fraction(rng.randint(0, 9), rng.choice((1, 3, 7))))
        return {"f": c + self._forward(rng)}, "decomposition"

    def run_periodic_fwd(self, x):
        return division.sphere_periodic_decompose(x["f"], self.Mz)

    def check_periodic_fwd(self, x, _, out):
        expect(isinstance(out, tuple), f"expected a decomposition, got {out!r}")
        q0, c, r0, rs = out
        f = x["f"]
        expect(q0 % 5 != 0, "Q0 divisible by p")
        expect(is_integer_valued(r0.terms, 4), "R_0 not integer valued")
        expect(all(is_integer_valued(r.terms, 4) for r in rs.values()), "R_i not integer valued")
        m5, r0f = self.m5, rat_fn(r0)
        rfs = {i: rat_fn(r) for i, r in rs.items()}
        deg = max([degree(f.terms), degree(r0.terms)]
                  + [2 * i + degree(r.terms) for i, r in rs.items()])
        expect(
            rat_identity(
                4, deg,
                lambda m: c + r0f(m) / 5 + sum(m5(m) ** i * r(m) for i, r in rfs.items()),
                lambda m: q0 * rat_value(f.terms, m),
            ),
            "Q0 f != C + R_0/p + sum M^i R_i",
        )
        return {"Q0": q0, "C": str(c), "R0": terms_key(r0),
                "R": {str(i): terms_key(r) for i, r in sorted(rs.items())}}

    def gen_periodic_adv(self, rng):
        # l.n / p^2 has fiber coefficient l_j / p at C(m, e_j) whatever n0 is;
        # the Z/p-valued and integer-valued parts only add integers there
        lin = [rng.randrange(5) for _ in range(4)]
        lin[rng.randrange(4)] = rng.randrange(1, 5)
        deep = fpoly.RatMultiPoly(
            4, {tuple(int(i == j) for i in range(4)): Fraction(c, 25) for j, c in enumerate(lin)}
        )
        f = deep + int_valued(rng, 4, 4).scale(Fraction(1, 5)) + int_valued(rng, 4, 3)
        return {"f": f}, "witness"

    def run_periodic_adv(self, x):
        try:
            return division.sphere_periodic_decompose(x["f"], self.Mz)
        except division.NotPartiallyPeriodic as exc:
            return exc

    def check_periodic_adv(self, x, _, out):
        return self._check_fiber_witness(x["f"], out, division.NotPartiallyPeriodic, True)

    # lifted Nullstellensatz
    def gen_lift_fwd(self, rng):
        return {"P": self.mz * int_valued(rng, 4, 2) + int_valued(rng, 4, 4)}, "certificate"

    def gen_lift_adv(self, rng):
        x, _ = self.gen_lift_fwd(rng)
        return {"P": x["P"] + lucas_bad_part(rng, 5, 4, self.V5, 4)}, "witness"

    def _run_lift(self, x):
        try:
            return division.lift_nullstellensatz(x["P"], self.Mz)
        except division.WitnessFound as exc:
            return exc

    run_lift_fwd = run_lift_adv = _run_lift

    def check_lift_fwd(self, x, _, out):
        expect(isinstance(out, tuple), f"expected a certificate, got {out!r}")
        p1, p0 = out
        P = x["P"]
        expect(has_integer_coefficients(p1.terms), "P1 has non-integer coefficients")
        expect(is_integer_valued(p0.terms, 4), "P0 not integer valued")
        deg = max(degree(P.terms), degree(p1.terms) + 2, degree(p0.terms))
        m5, p1f, p0f = self.m5, rat_fn(p1), rat_fn(p0)
        expect(rat_identity(4, deg, lambda m: m5(m) * p1f(m) + p0f(m), rat_fn(P)),
               "P != M P1 + P0")
        return {"P1": terms_key(p1), "P0": terms_key(p0)}

    def check_lift_adv(self, x, _, out):
        expect(isinstance(out, division.WitnessFound), f"expected a witness, got {out!r}")
        n = out.witness
        expect(self._on_v5(n), f"witness {n} not on V_p(M)")
        expect(rat_value(x["P"].terms, n).denominator != 1, "P(witness) is an integer")
        return {"witness": list(n)}

    # Weyl constant branch
    def gen_weyl_const(self, rng):
        a = rng.randrange(7)
        g = (self.npoly7 * int_valued(rng, 4, 1) + int_valued(rng, 4, 2).scale(7)
             + fpoly.RatMultiPoly.constant(4, a))
        return {"g": g}, a

    def run_weyl_const(self, x):
        return equidist.weyl_dichotomy(x["g"], 7, 1, 0.5, omega=self.omega7)

    def check_weyl_const(self, x, a, out):
        expect(out.branch == "constant" and out.value == 1.0, f"branch {out.branch}")
        expect(out.constant == Fraction(a, 7), "wrong constant")
        g1, g2, g = rat_fn(out.g1), rat_fn(out.g2), rat_fn(x["g"])
        deg = max(degree(x["g"].terms), degree(out.g1.terms) + 2, degree(out.g2.terms))
        expect(rat_identity(4, deg, lambda m: (sum(t * t for t in m) - 1) * g1(m) + 7 * g2(m) + a, g),
               "g != (n.n - r) g1 + p g2 + a")
        return {"branch": out.branch, "constant": str(out.constant),
                "g1": terms_key(out.g1), "g2": terms_key(out.g2)}

    # induce / regular_lift round trips
    def gen_roundtrip(self, rng, p):
        F = fp_poly(p, 2, sparse_terms(rng, p, 2, min(4, (p - 1) // 2)))
        return {"F": F, "g": int_valued(rng, 2, 3), "p": p}, F.terms

    def run_roundtrip(self, x):
        lift = fpoly.regular_lift(x["F"])
        return lift, fpoly.induce(lift + x["g"], x["p"])

    def check_roundtrip(self, x, terms, out):
        lift, induced = out
        p = x["p"]
        expect(lift.terms == {e: Fraction(c, p) for e, c in terms.items()}, "regular lift")
        expect(induced.terms == terms, "induce(lift + integer valued) != F")
        return {"lift": terms_key(lift), "induced": terms_key(induced)}


# -- quadrics --------------------------------------------------------------------


class Quadrics:
    """Many small F_p decisions with mixed branches on random forms at
    p in {5, 7, 11, 13}, d in {3, 4, 5}; each polynomial meets one fresh
    point set.  Intrinsic decompositions run at p=5, d=5, s=2.  Forms have
    full rank, so |V(M)|, and with it the cost of each (p, d), varies little
    from draw to draw."""

    # every (p, d) once per round for the per-form kinds, so each run sees
    # the same sizes; twelve witness scans per round put the p90 latency
    # inside the intrinsic_adv cluster
    basket = [
        (kind, (p, d))
        for p in (5, 7, 11, 13)
        for d in (3, 4, 5)
        for kind in ("normalize", "zero_count", "exp_sum", "division", "nullstellensatz", "dichotomy")
    ] + [("intrinsic_fwd", ()), ("intrinsic_adv", ())] * 12

    def library_setup(self):
        self.M55 = quadform.QuadForm.dot_form(ffcore.PrimeField(5), 5, radius=1)
        self.mp55 = self.M55.as_poly()

    def bench_setup(self):
        self.A55, self.u55, self.v55 = sphere_data(5, 1, 5)

    def gen_normalize(self, rng, p, d):
        A, u, v = rand_form(rng, p, d, d)
        return {"M": make_form(p, A, u, v), "data": (p, d, A, u, v)}, None

    def run_normalize(self, x):
        cert = quadform.normalize(x["M"])
        return cert, cert.verify()

    def check_normalize(self, x, _, out):
        cert, verified = out
        check_normalization(x["data"], cert.to_json())
        expect(verified, "verify() returned False")
        return cert.to_json()

    def gen_zero_count(self, rng, p, d):
        A, u, v = rand_form(rng, p, d, d)
        return {"M": make_form(p, A, u, v)}, len(sphere_zeros(A, u, v, p, d))

    def run_zero_count(self, x):
        return counting.zero_count_check(x["M"])

    def check_zero_count(self, x, count, rep):
        expect(rep.exact == count, f"|V(M)| = {rep.exact}, expected {count}")
        return {"exact": rep.exact, "main": str(rep.main_term), "pass": bool(rep.passed)}

    def gen_exp_sum(self, rng, p, d):
        A, u, v = rand_form(rng, p, d, d)
        xi = [0] * d
        while not any(xi):
            xi = [rng.randrange(p) for _ in range(d)]
        zeros = sphere_zeros(A, u, v, p, d)
        mean = np.exp(2j * np.pi * ((zeros @ np.array(xi)) % p) / p).mean()
        return {"M": make_form(p, A, u, v), "xi": xi}, complex(mean)

    def run_exp_sum(self, x):
        return counting.exp_sum(x["M"], x["xi"])

    def check_exp_sum(self, x, mean, value):
        expect(abs(value - mean) < 1e-9, f"exp sum {value} vs recount {mean}")
        return {"re": repr(value.real), "im": repr(value.imag)}

    def gen_division(self, rng, p, d):
        A, u, v = rand_form(rng, p, d, d)
        M = make_form(p, A, u, v)
        P = M.as_poly() * fp_poly(p, d, sparse_terms(rng, p, d, rng.randint(0, 2)))
        if P.is_zero():
            P = M.as_poly()
        return {"M": M, "P": P, "data": (p, d, A, u, v)}, None

    def run_division(self, x):
        return division.bij_division(x["P"], x["M"])

    def check_division(self, x, _, cert):
        p, d, A, u, v = x["data"]
        P = x["P"]
        B = np.array(cert.B.rows, dtype=np.int64)
        expect(cert.r1.is_zero() and cert.r0.is_zero(), "multiple left a remainder")
        expect(degree(cert.quotient.terms) <= max(degree(P.terms) - 2, -1), "quotient degree")

        def rhs(pts):
            nb = pts @ B % p
            return (form_values(A, u, v, p, nb) * fp_values(cert.quotient.terms, p, pts)
                    + pts[:, 0] * fp_values(cert.r1.terms, p, pts) + fp_values(cert.r0.terms, p, pts))

        deg = max(degree(P.terms), 2 + degree(cert.quotient.terms), 1 + degree(cert.r1.terms),
                  degree(cert.r0.terms))
        check_fp_identity(p, d, deg, lambda pts: fp_values(P.terms, p, pts @ B % p),
                          rhs, "P(nB) != M(nB) Q + n1 R1 + R0")
        return cert.to_json()

    def _ns_poly(self, rng, p, d, dense):
        s = min(3, (p - 1) // 2)
        terms = dense_terms(rng, p, d, s) if dense else sparse_terms(rng, p, d, s)
        P = fp_poly(p, d, terms)
        return P if not P.is_zero() else fp_poly(p, d, {(0,) * d: 1})

    def gen_nullstellensatz(self, rng, p, d):
        A, u, v = rand_form(rng, p, d, d)
        P = self._ns_poly(rng, p, d, dense=False)
        zeros = sphere_zeros(A, u, v, p, d)
        contained = not fp_values(P.terms, p, zeros).any()
        return ({"M": make_form(p, A, u, v), "P": P, "data": (p, d, A, u, v)},
                "certificate" if contained else "witness")

    def run_nullstellensatz(self, x):
        return division.nullstellensatz(x["P"], x["M"])

    def _check_certificate(self, x, R):
        p, d, A, u, v = x["data"]
        P = x["P"]
        check_fp_identity(p, d, max(degree(P.terms), 2 + degree(R.terms)),
                          lambda pts: form_values(A, u, v, p, pts) * fp_values(R.terms, p, pts),
                          lambda pts: fp_values(P.terms, p, pts), "P != M R")

    def _check_witness(self, x, w):
        p, d, A, u, v = x["data"]
        expect(in_zero_set(A, u, v, p, w), "witness not on V(M)")
        expect(fp_value(x["P"].terms, p, w) != 0, "P vanishes at the witness")

    def check_nullstellensatz(self, x, kind, out):
        expect(out[0] == kind, f"branch {out[0]}, expected {kind}")
        if kind == "certificate":
            self._check_certificate(x, out[1])
            return {"kind": kind, "R": terms_key(out[1])}
        self._check_witness(x, out[1])
        return {"kind": kind, "witness": list(out[1])}

    def gen_dichotomy(self, rng, p, d):
        while True:
            A, u, v = rand_form(rng, p, d, d)
            P = self._ns_poly(rng, p, d, dense=True)
            zeros = sphere_zeros(A, u, v, p, d)
            count = int((fp_values(P.terms, p, zeros) == 0).sum())
            if count == len(zeros) or count <= 0.5 * len(zeros):
                kind = "contained" if count == len(zeros) else "small"
                return ({"M": make_form(p, A, u, v), "P": P, "data": (p, d, A, u, v)},
                        (kind, count, len(zeros)))

    def run_dichotomy(self, x):
        return division.dichotomy(x["P"], x["M"], 0.5)

    def check_dichotomy(self, x, expected, out):
        expect((out.kind, out.count, out.total) == expected, f"{out.kind} {out.count}/{out.total}")
        if out.kind == "contained":
            self._check_certificate(x, out.certificate)
            return {"kind": out.kind, "count": out.count, "R": terms_key(out.certificate)}
        self._check_witness(x, out.witness)
        return {"kind": out.kind, "count": out.count, "witness": list(out.witness)}

    def gen_intrinsic_fwd(self, rng):
        g = (self.mp55 * fp_poly(5, 5, {(0,) * 5: rng.randrange(5)})
             + fp_poly(5, 5, sparse_terms(rng, 5, 5, 1)))
        return {"g": g}, "decomposition"

    def gen_intrinsic_adv(self, rng):
        # dense draws: a sparse g (one cross term, say) can push the first
        # witness deep into the scan, and a few such draws dominate a run
        while True:
            terms = dense_terms(rng, 5, 5, 2)
            quad = {e: c for e, c in terms.items() if sum(e) == 2 and c}
            squares = {quad.get(tuple(2 * int(i == j) for i in range(5)), 0) for j in range(5)}
            # decomposable iff the quadratic part is c * (n.n)
            if any(max(e) == 1 for e in quad) or len(squares) > 1:
                return {"g": fp_poly(5, 5, terms)}, "witness"

    def _run_intrinsic(self, x):
        return division.intrinsic_decompose(x["g"], self.M55, 2)

    run_intrinsic_fwd = run_intrinsic_adv = _run_intrinsic

    def check_intrinsic_fwd(self, x, kind, out):
        expect(out[0] == kind, f"branch {out[0]}")
        _, g1, g2 = out
        A, u, v = self.A55, self.u55, self.v55
        expect(degree(g1.terms) <= 0 and degree(g2.terms) <= 1, "decomposition degrees")
        check_fp_identity(5, 5, 2,
                          lambda pts: form_values(A, u, v, 5, pts) * fp_values(g1.terms, 5, pts)
                          + fp_values(g2.terms, 5, pts),
                          lambda pts: fp_values(x["g"].terms, 5, pts), "g != M g1 + g2")
        return {"kind": kind, "g1": terms_key(g1), "g2": terms_key(g2)}

    def check_intrinsic_adv(self, x, kind, out):
        expect(out[0] == kind, f"branch {out[0]}")
        n, h1, h2 = (np.array(t, dtype=np.int64) for t in out[1])
        corners = np.array([n, n + h1, n + h2, n + h1 + h2]) % 5
        expect(not form_values(self.A55, self.u55, self.v55, 5, corners).any(),
               "cube leaves V(M)")
        vals = fp_values(x["g"].terms, 5, corners)
        expect((vals[3] - vals[1] - vals[2] + vals[0]) % 5 != 0, "cube difference vanishes")
        return {"kind": kind, "cube": [list(map(int, t)) for t in out[1]]}


def check_normalization(data, cert):
    """M(nR + shift) equals the standard shape on {0,1,2}^d (degree 2 < 3)."""
    p, d, A, u, v = data
    pts = all_points(3, d)
    R = np.array(cert["R"], dtype=np.int64)
    lhs = form_values(A, u, v, p, (pts @ R + np.array(cert["shift"])) % p)
    c, dprime = cert["c"], cert["dprime"]
    rhs = np.full(len(pts), -cert["lambda"], dtype=np.int64)
    for i in range(dprime):
        rhs += (c if i == 0 else 1) * pts[:, i] ** 2
    if cert["cprime"] and dprime < d:
        rhs += cert["cprime"] * pts[:, dprime]
    expect(np.array_equal(lhs % p, rhs % p), "M(nR + shift) != standard shape")


# -- cli -------------------------------------------------------------------------


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def fp_json(d, terms):
    return {"nvars": d, "terms": [{"exp": list(e), "coeff": c} for e, c in sorted(terms.items())]}


def form_json(p, A, u, v):
    return {"p": p, "A": A, "u": u, "v": v}


class Cli:
    """Sequential `spherefp` invocations: all 14 subcommands (decompose in
    all five kinds) on seeded JSON inputs, each with its expected exit code.
    Each invocation is a fresh interpreter, so cold start is in every
    instance."""

    basket = [
        (kind, ()) for kind in (
            "count", "normalize", "expsum", "gowers", "divide", "nullstellensatz", "dichotomy",
            "decompose_intrinsic", "decompose_gowers_equation", "decompose_lift_nullstellensatz",
            "decompose_sphere_vanishing", "decompose_sphere_periodic", "mset_repr",
            "fubini_check", "irreducibility_probe", "equidist", "weyl", "leibman_probe",
        )
    ]

    def __init__(self, workdir, src, traced_entry=None):
        self.workdir = workdir
        self.src = src
        self.traced_entry = traced_entry  # set for the traced run
        self.env = dict(os.environ, PYTHONPATH=src)
        self.counter = 0

    def library_setup(self):
        pass

    def bench_setup(self):
        self.lifts = Lifts()
        self.lifts.library_setup()
        self.lifts.bench_setup()
        self.quadrics = Quadrics()
        self.quadrics.library_setup()
        self.quadrics.bench_setup()

    def _file(self, obj):
        self.counter += 1
        return write_json(os.path.join(self.workdir, f"in{self.counter}.json"), obj)

    def _small_form(self, rng, p=5, d=3):
        A, u, v = rand_form(rng, p, d, 3)
        return p, d, A, u, v

    def run(self, x):
        if self.traced_entry:
            spans = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, self.traced_entry, spans] + x["args"]
        else:
            spans = None
            cmd = [sys.executable, "-m", "spherefp.cli"] + x["args"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout, spans

    def check(self, x, expected, out):
        code, stdout, _ = out
        want_code, verify = expected
        expect(code == want_code, f"exit {code}, expected {want_code}")
        report = json.loads(stdout)
        expect(report.get("schema") == "sphere-hofa/1", "missing schema")
        verify(report)
        return report

    def gen_count(self, rng):
        p, d, A, u, v = self._small_form(rng)
        count = len(sphere_zeros(A, u, v, p, d))

        def verify(r):
            expect(r["exact"] == count, "count differs from recount")

        return {"args": ["count", "--json", self._file(form_json(p, A, u, v))]}, (0, verify)

    def gen_normalize(self, rng):
        data = p, d, A, u, v = self._small_form(rng, rng.choice((5, 7)), rng.choice((3, 4)))

        def verify(r):
            expect(r["verified"], "not verified")
            check_normalization(data, r)

        return {"args": ["normalize", "--json", self._file(form_json(p, A, u, v))]}, (0, verify)

    def gen_expsum(self, rng):
        p, d, A, u, v = self._small_form(rng)
        xi = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
        zeros = sphere_zeros(A, u, v, p, d)
        mean = abs(np.exp(2j * np.pi * ((zeros @ np.array(xi)) % p) / p).mean())

        def verify(r):
            expect(abs(r["abs"] - mean) < 1e-9 and r["pass"], "exp sum differs from recount")

        blob = {"form": form_json(p, A, u, v), "xi": xi}
        return {"args": ["expsum", "--json", self._file(blob)]}, (0, verify)

    def gen_gowers(self, rng):
        p, d, A, u, v = self._small_form(rng, 5, rng.choice((3, 4)))
        count = len(sphere_zeros(A, u, v, p, d)) ** 2

        def verify(r):
            expect(r["exact"] == count, "|Box_1| != |V|^2")

        path = self._file(form_json(p, A, u, v))
        return {"args": ["gowers", "--json", path, "--s", "1"]}, (0, verify)

    def gen_divide(self, rng):
        x, _ = self.quadrics.gen_division(rng, 5, 3)
        p, d, A, u, v = x["data"]

        def verify(r):
            expect(r["verified"] and r["remainder_zero"], "multiple not divided exactly")

        blob = {"form": form_json(p, A, u, v), "poly": fp_json(d, x["P"].terms)}
        return {"args": ["divide", "--json", self._file(blob)]}, (0, verify)

    def gen_nullstellensatz(self, rng):
        x, kind = self.quadrics.gen_nullstellensatz(rng, rng.choice((5, 7)), 3)
        p, d, A, u, v = x["data"]

        def verify(r):
            expect(r["kind"] == kind, f"kind {r['kind']}")
            if kind == "witness":
                self.quadrics._check_witness(x, r["point"])
            else:
                R = fpoly.FpMultiPoly.from_json(p, r["quotient"])
                self.quadrics._check_certificate(x, R)

        blob = {"form": form_json(p, A, u, v), "poly": fp_json(d, x["P"].terms)}
        code = 0 if kind == "certificate" else 1
        return {"args": ["nullstellensatz", "--json", self._file(blob)]}, (code, verify)

    def gen_dichotomy(self, rng):
        x, (kind, count, total) = self.quadrics.gen_dichotomy(rng, 5, 3)
        p, d, A, u, v = x["data"]

        def verify(r):
            expect((r["kind"], r["count"], r["total"]) == (kind, count, total), "dichotomy verdict")
            if kind == "small":
                self.quadrics._check_witness(x, r["witness"])

        blob = {"form": form_json(p, A, u, v), "poly": fp_json(d, x["P"].terms)}
        code = 0 if kind == "small" else 1
        args = ["dichotomy", "--json", self._file(blob), "--delta", "0.5"]
        return {"args": args}, (code, verify)

    def gen_decompose_intrinsic(self, rng):
        fwd = rng.random() < 0.5
        x, kind = (self.quadrics.gen_intrinsic_fwd if fwd else self.quadrics.gen_intrinsic_adv)(rng)

        def verify(r):
            expect(r["kind"] == kind, f"kind {r['kind']}")
            if fwd:
                g1 = fpoly.FpMultiPoly.from_json(5, r["g1"])
                g2 = fpoly.FpMultiPoly.from_json(5, r["g2"])
                self.quadrics.check_intrinsic_fwd(x, kind, ("decomposition", g1, g2))
            else:
                self.quadrics.check_intrinsic_adv(x, kind, ("witness", r["cube"]))

        blob = {"form": form_json(5, *sphere_data(5, 1, 5)), "poly": fp_json(5, x["g"].terms)}
        args = ["decompose", "--kind", "intrinsic", "--s", "2", "--json", self._file(blob)]
        return {"args": args}, (0 if fwd else 1, verify)

    def gen_decompose_gowers_equation(self, rng):
        A, u, v = sphere_data(4, 1, 5)
        mp = make_form(5, A, u, v).as_poly()
        P = mp * fp_poly(5, 4, sparse_terms(rng, 5, 4, 0))
        Q = mp * fp_poly(5, 4, sparse_terms(rng, 5, 4, 1)) + fp_poly(5, 4, {(0,) * 4: rng.randrange(5)})

        def verify(r):
            expect(r["kind"] == "factorization", f"kind {r['kind']}")
            parts = {k: fpoly.FpMultiPoly.from_json(5, r[k]) for k in ("P1", "P2", "Q1", "Q2")}
            expect(degree(parts["P2"].terms) <= -1 and degree(parts["Q2"].terms) <= 0, "degrees")
            for big, one, two in ((P, "P1", "P2"), (Q, "Q1", "Q2")):
                check_fp_identity(
                    5, 4, max(degree(big.terms), 2 + degree(parts[one].terms)),
                    lambda pts: form_values(A, u, v, 5, pts) * fp_values(parts[one].terms, 5, pts)
                    + fp_values(parts[two].terms, 5, pts),
                    lambda pts: fp_values(big.terms, 5, pts), f"{big} != M {one} + {two}")

        blob = {"form": form_json(5, A, u, v), "P": fp_json(4, P.terms), "Q": fp_json(4, Q.terms)}
        args = ["decompose", "--kind", "gowers-equation", "--s", "1", "--json", self._file(blob)]
        return {"args": args}, (0, verify)

    def _zp_blob(self, f):
        return {"form": {"p": 5, "A": identity(4), "u": [0] * 4, "v": -1},
                "poly": {"nvars": 4, "terms": [{"exp": list(e), "coeff": str(c)}
                                               for e, c in sorted(f.terms.items())]}}

    def gen_decompose_lift_nullstellensatz(self, rng):
        x, _ = self.lifts.gen_lift_fwd(rng)

        def verify(r):
            expect(r["kind"] == "certificate", f"kind {r['kind']}")
            p1 = fpoly.RatMultiPoly.from_json(r["P1"])
            p0 = fpoly.RatMultiPoly.from_json(r["P0"])
            self.lifts.check_lift_fwd(x, None, (p1, p0))

        args = ["decompose", "--kind", "lift-nullstellensatz", "--json", self._file(self._zp_blob(x["P"]))]
        return {"args": args}, (0, verify)

    def gen_decompose_sphere_vanishing(self, rng):
        x, _ = self.lifts.gen_vanish_fwd(rng)

        def verify(r):
            expect(r["kind"] == "decomposition", f"kind {r['kind']}")
            rs = [fpoly.RatMultiPoly.from_json(t) for t in r["R"]]
            self.lifts.check_vanish_fwd(x, None, (r["Q0"], rs))

        args = ["decompose", "--kind", "sphere-vanishing", "--json", self._file(self._zp_blob(x["f"]))]
        return {"args": args}, (0, verify)

    def gen_decompose_sphere_periodic(self, rng):
        x, _ = self.lifts.gen_periodic_fwd(rng)

        def verify(r):
            expect(r["kind"] == "decomposition", f"kind {r['kind']}")
            rs = {int(i): fpoly.RatMultiPoly.from_json(t) for i, t in r["R"].items()}
            out = (r["Q0"], Fraction(r["C"]), fpoly.RatMultiPoly.from_json(r["R0"]), rs)
            self.lifts.check_periodic_fwd(x, None, out)

        args = ["decompose", "--kind", "sphere-periodic", "--json", self._file(self._zp_blob(x["f"]))]
        return {"args": args}, (0, verify)

    def _mset_blob(self, rng):
        radius = rng.randrange(1, 5)
        A, u, v = sphere_data(3, radius, 5)
        family = {"k": 2, "functions": [
            {"b": {"1,1": 1}, "v": [[0] * 3, [0] * 3], "u": v},
            {"b": {"1,2": 2, "2,2": 1}, "v": [[0] * 3, [0] * 3], "u": 0},
        ]}
        return {"form": form_json(5, A, u, v), "family": family}

    def gen_mset_repr(self, rng):
        def verify(r):
            expect(r["dimension_vector"] == [1, 1] and r["total_codim"] == 2, "representation")

        return {"args": ["mset-repr", "--json", self._file(self._mset_blob(rng))]}, (0, verify)

    def gen_fubini_check(self, rng):
        def verify(r):
            expect(r["pass"] and r["diff"] <= r["bound"], "Fubini report")

        args = ["fubini-check", "--json", self._file(self._mset_blob(rng)),
                "--seed", str(rng.randrange(10**6))]
        return {"args": args}, (0, verify)

    def gen_irreducibility_probe(self, rng):
        A, u, v = sphere_data(4, 1, 7)
        family = {"k": 1, "functions": [{"b": {"1,1": 1}, "v": [[0] * 4], "u": v}]}

        def verify(r):
            expect(r["middle_ground"] == [] and sum(r["counts"].values()) == 10, "probe counts")

        blob = {"form": form_json(7, A, u, v), "family": family}
        args = ["irreducibility-probe", "--json", self._file(blob), "--s", "2", "--delta", "0.3",
                "--trials", "10", "--seed", str(rng.randrange(10**6))]
        return {"args": args}, (0, verify)

    def gen_equidist(self, rng):
        # c (n.n - 1)/p + a/p is the constant a/p mod 1 on the radius-1 sphere
        p, d = 5, 3
        c, a = rng.randrange(1, p), rng.randrange(p)
        coeffs = [{"index": [0] * d, "value": [str(Fraction(a - c, p))]}]
        for j in range(d):
            coeffs.append({"index": [2 * int(i == j) for i in range(d)], "value": [str(Fraction(2 * c, p))]})
            coeffs.append({"index": [int(i == j) for i in range(d)], "value": [str(Fraction(c, p))]})

        def verify(r):
            expect(r["verdict"] == "obstructed" and r["witness_k"] == [1], "not obstructed")
            expect(Fraction(r["constant"]) == Fraction(a, p), "wrong constant")

        blob = {"sequence": {"d": d, "m": 1, "s": 2, "coeffs": coeffs}, "radius": 1}
        args = ["equidist", "--prime", str(p), "--delta", "0.3", "--json", self._file(blob)]
        return {"args": args}, (1, verify)

    def gen_weyl(self, rng):
        p, d = 5, 3
        npoly = division.ZpQuadForm.sphere(p, d, 1).integer_poly()
        a = rng.randrange(p)
        g = (npoly * int_valued(rng, d, 1) + int_valued(rng, d, 2).scale(p)
             + fpoly.RatMultiPoly.constant(d, a))

        def verify(r):
            expect(r["branch"] == "constant" and Fraction(r["constant"]) == Fraction(a, p), "branch")
            g1 = fpoly.RatMultiPoly.from_json(r["g1"])
            g2 = fpoly.RatMultiPoly.from_json(r["g2"])
            deg = max(degree(g.terms), degree(g1.terms) + 2, degree(g2.terms))
            expect(rat_identity(d, deg, lambda m: (sum(t * t for t in m) - 1) * rat_value(g1.terms, m)
                                + p * rat_value(g2.terms, m) + a, rat_fn(g)), "certificate")

        blob = {"poly": {"nvars": d, "terms": [{"exp": list(e), "coeff": str(c)}
                                               for e, c in sorted(g.terms.items())]}, "radius": 1}
        args = ["weyl", "--prime", str(p), "--delta", "0.5", "--json", self._file(blob)]
        return {"args": args}, (1, verify)

    def gen_leibman_probe(self, rng):
        # outside the theorem regime (d < s + 13) violations are data, not
        # failures: the exit code must agree with the report
        args = ["leibman-probe", "--prime", "5", "--dim", "3", "--trials", "4",
                "--seed", str(rng.randrange(10**6))]
        return {"args": args}, (None, None)

    def check_leibman_probe(self, x, _, out):
        code, stdout, _ = out
        r = json.loads(stdout)
        expect(r["equidistributed"] + r["obstructed"] + len(r["violations"]) == 4, "trial count")
        expect(code == (1 if r["violations"] else 0), f"exit {code} disagrees with report")
        return r


for _kind, _ in Cli.basket:
    setattr(Cli, f"run_{_kind}", Cli.run)
    if not hasattr(Cli, f"check_{_kind}"):
        setattr(Cli, f"check_{_kind}", Cli.check)

WORKLOADS = {"boxsets": Boxsets, "lifts": Lifts, "quadrics": Quadrics, "cli": Cli}
