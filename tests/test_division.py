import contextlib
import functools
import itertools
import operator
import random
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp.counting import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    RankHypothesisFailed,
    all_points,
    enumerate_zeros,
)
from spherefp import _zlinalg, counting, division, fpoly
from spherefp.division import (
    DivisionCert,
    HypothesisFailed,
    NotPartiallyPeriodic,
    NotSphereIntegral,
    WitnessFound,
    ZeroMatrix,
    ZpQuadForm,
    antiderivative,
    bij_division,
    dichotomy,
    first_gowers_witness,
    gowers_equation_solve,
    intrinsic_decompose,
    lift_nullstellensatz,
    nullstellensatz,
    pivot_change,
    reduce_mod_form,
    sphere_periodic_decompose,
    sphere_vanishing_decompose,
    _cube_difference,
    _cube_differences,
)
from spherefp.ffcore import FpMatrix, HypothesisNotMet, PrimeField, SpherefpError, rank as mat_rank
from spherefp.fpoly import (
    ArityMismatch,
    FpMultiPoly,
    RatMultiPoly,
    ValueRangeError,
    _binom_basis_indices,
    _fiber_axis_table,
    _fiber_coefficient_table,
    _first_noninteger_fiber,
    induce,
    partial_periodicity_witness,
    regular_lift,
)
from spherefp.quadform import QuadForm, TheoremViolation

from conftest import box_rows, random_form, random_fp_poly, random_int_valued, random_rat_poly
from test_counting import lidl_niederreiter_count
from test_zlinalg import _int_solve_reference


def test_pivot_change_cases(f5):
    (i, j), B = pivot_change(FpMatrix(f5, [[2, 0], [0, 0]]))
    assert (i, j) == (1, 1)
    assert B.matmul(FpMatrix(f5, [[2, 0], [0, 0]])).matmul(B.transpose()).rows[0][0] == 2

    A = FpMatrix(f5, [[0, 1], [1, 0]])
    (i, j), B = pivot_change(A)
    assert (i, j) == (1, 2)
    assert B.matmul(A).matmul(B.transpose()).rows[0][0] == 1

    A2 = FpMatrix(f5, [[0, 0], [0, 3]])
    (i, j), B2 = pivot_change(A2)
    assert (i, j) == (2, 2)
    assert B2.matmul(A2).matmul(B2.transpose()).rows[0][0] == 3

    with pytest.raises(ZeroMatrix):
        pivot_change(FpMatrix.zero(f5, 2, 2))


def test_pivot_change_randomized(rng):
    for p in (5, 7):
        field = PrimeField(p)
        for _ in range(60):
            d = rng.randint(2, 5)
            a = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    a[i][j] = a[j][i] = rng.randrange(p)
            A = FpMatrix(field, a)
            if all(all(x == 0 for x in row) for row in a):
                continue
            _, B = pivot_change(A)
            assert mat_rank(B) == d
            assert B.matmul(A).matmul(B.transpose()).rows[0][0] != 0


def test_standard_division_examples(f5):
    # with A[0][0] != 0 the pivot change is the identity, so bij_division is
    # the standard long division by M in n_1
    M = QuadForm.dot_form(f5, 2)
    factor = FpMultiPoly(5, 2, {(1, 0): 1, (0, 0): 1})
    cert = bij_division(M.as_poly() * factor, M)
    assert cert.pivot == (1, 1) and cert.B.rows == [[1, 0], [0, 1]]
    assert cert.remainder_is_zero() and cert.quotient == factor

    cert2 = bij_division(FpMultiPoly(5, 2, {(1, 0): 1}), M)
    assert cert2.quotient.is_zero()
    assert cert2.r1 == FpMultiPoly.constant(5, 2, 1) and cert2.r0.is_zero()
    with pytest.raises(HypothesisNotMet, match="nonzero remainder"):
        cert2.divisor_multiple()  # n_1 is no multiple of M

    cert3 = bij_division(FpMultiPoly(5, 2, {(3, 0): 1}), M)
    assert cert3.verify()


def test_division_roundtrip_randomized(rng):
    for p in (5, 7):
        field = PrimeField(p)
        for _ in range(60):
            M = random_form(field, 3, rng, min_rank=1)
            R = random_fp_poly(p, 3, 2, rng)
            P = M.as_poly() * R
            if P.degree() >= p:
                continue
            cert = bij_division(P, M)
            assert cert.verify()
            assert cert.remainder_is_zero()
            assert M.as_poly() * cert.divisor_multiple() == P


def test_nullstellensatz_totality(f7, rng):
    M = QuadForm.dot_form(f7, 4, radius=2)
    mp = M.as_poly()
    zeros = enumerate_zeros(M)
    for _ in range(40):
        P = random_fp_poly(7, 4, 3, rng)
        if P.is_zero():
            continue
        kind, payload = nullstellensatz(P, M)
        if kind == "certificate":
            assert mp * payload == P
            assert payload.degree() <= P.degree() - 2
        else:
            assert M.evaluate(list(payload)) == 0
            assert P.evaluate(list(payload)) != 0
    # constructed multiple and constant
    kind, R = nullstellensatz(mp * FpMultiPoly(7, 4, {(1, 0, 0, 0): 3}), M)
    assert kind == "certificate"
    kind, w = nullstellensatz(FpMultiPoly.constant(7, 4, 1), M)
    assert kind == "witness"


def test_nullstellensatz_precondition(f5):
    M = QuadForm.dot_form(f5, 4, radius=1)
    with pytest.raises(ValueError):
        nullstellensatz(FpMultiPoly(5, 4, {(3, 0, 0, 0): 1}), M)  # 2s >= p


def test_dichotomy(f7, rng):
    M = QuadForm.dot_form(f7, 4, radius=1)
    mp = M.as_poly()
    v1 = dichotomy(mp * random_fp_poly(7, 4, 1, rng), M, 0.3)
    assert v1.kind == "contained" and v1.certificate is not None
    v2 = dichotomy(FpMultiPoly(7, 4, {(1, 0, 0, 0): 1}), M, 0.3)
    assert v2.kind == "small"
    assert M.evaluate(list(v2.witness)) == 0
    v3 = dichotomy(FpMultiPoly.constant(7, 4, 3), M, 0.3)
    assert v3.kind == "small" and v3.count == 0


def test_dichotomy_certificate_past_the_budget(monkeypatch):
    # V(M) of the sphere of F_13^8 (13^8 candidates) does not fit the default
    # budget, so P = M n_1 is divided instead: count = total = |V(M)|
    M = QuadForm.dot_form(PrimeField(13), 8, radius=1)
    mp = M.as_poly()
    n1 = FpMultiPoly(13, 8, {(1,) + (0,) * 7: 1})
    v = dichotomy(mp * n1, M, 0.3)
    size = lidl_niederreiter_count(13, [1] * 8, 1, 8)
    assert (v.kind, v.count, v.total, v.certificate, v.witness) == ("contained", size, size, n1, None)
    # any other P gets the enumeration's refusal: a nonzero remainder, and
    # a multiple of M of degree 7, which needs p > 2 deg P = 14
    n1_5 = FpMultiPoly(13, 8, {(5,) + (0,) * 7: 1})
    for P in (mp * n1 + n1, n1, FpMultiPoly.constant(13, 8, 1), mp * n1_5):
        with pytest.raises(BudgetExceeded, match="^enumeration of size 815730721 exceeds budget 100000000$"):
            dichotomy(P, M, 0.3)
    # past a small budget the closed form gives the enumerated verdict
    M = QuadForm.dot_form(PrimeField(7), 4, radius=2)
    P = M.as_poly() * FpMultiPoly(7, 4, {(0, 1, 0, 0): 3, (0, 0, 0, 0): 1})
    small, full = dichotomy(P, M, 0.3, budget=7**4 - 1), dichotomy(P, M, 0.3)
    assert small.to_json() == full.to_json() and small.certificate == full.certificate
    # within the budget V(M) is enumerated first: a small verdict divides nothing
    monkeypatch.setattr(division, "bij_division", lambda *a: pytest.fail("divided within the budget"))
    assert dichotomy(FpMultiPoly(7, 4, {(1, 0, 0, 0): 1}), M, 0.3).kind == "small"


def test_dichotomy_containment_with_a_remainder_is_a_violation(monkeypatch):
    # count = total divides once: a nonzero remainder then contradicts the
    # theorem, with V(M) enumerated once, for the count, and not again for a
    # witness; and below p > 2 deg P the containment is out of range
    M = QuadForm.dot_form(PrimeField(7), 4, radius=1)
    mp = M.as_poly()
    with pytest.raises(ValueRangeError, match=r"^needs p >= 5 and p > 2 deg\(P\)$"):
        dichotomy(mp * mp, M, 0.3)
    runs = []
    enumerate_once = division.enumerate_zeros
    monkeypatch.setattr(division, "enumerate_zeros", lambda *a: runs.append(a) or enumerate_once(*a))
    divide = division.bij_division
    one = FpMultiPoly.constant(7, 4, 1)
    monkeypatch.setattr(division, "bij_division", lambda P, M: divide(P + one, M))
    with pytest.raises(TheoremViolation, match=r"^V\(M\) contained in V\(P\) but the division has a remainder$"):
        dichotomy(mp * FpMultiPoly(7, 4, {(1, 0, 0, 0): 1}), M, 0.3)
    assert len(runs) == 1


def test_antiderivative_multiple(f7, rng):
    M = QuadForm.dot_form(f7, 4, radius=2)
    W = random_fp_poly(7, 4, 1, rng)
    W = W - FpMultiPoly.constant(7, 4, W.constant_term())  # W(0) = 0 so Q(0) = 0
    Q = M.as_poly() * W
    qprime = antiderivative(Q, M)
    assert M.as_poly() * qprime == Q


def test_antiderivative_hypothesis_failure(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    with pytest.raises(HypothesisFailed) as info:
        antiderivative(FpMultiPoly(5, 3, {(0, 1, 0): 1}), M)
    i, n = info.value.witness
    mp = M.as_poly()
    Q = FpMultiPoly(5, 3, {(0, 1, 0): 1})
    lhs = (mp.partial(0) * Q.partial(i - 1)).evaluate(list(n))
    rhs = (mp.partial(i - 1) * Q.partial(0)).evaluate(list(n))
    assert lhs != rhs and M.evaluate(list(n)) == 0


def test_antiderivative_constant_gap(f7):
    # Q = n.n satisfies the derivative hypothesis and Q(0) = 0 against
    # M = n.n - 2, but differs from a multiple of M by the constant 2: the
    # proposition's conclusion fails by exactly that constant, which the
    # implementation reports rather than mis-certifies.
    M = QuadForm.dot_form(f7, 4, radius=2)
    Q = QuadForm.dot_form(f7, 4).as_poly()
    with pytest.raises(TheoremViolation):
        antiderivative(Q, M)


def test_antiderivative_certificate_first(monkeypatch):
    # Q = M W is its own proof of the hypothesis, so V(M) is not enumerated:
    # the cone of F_13^6 has 13^5 points and is never scanned
    def never(*args, **kwargs):
        raise AssertionError("antiderivative enumerated V(M) for a multiple of M")

    monkeypatch.setattr(counting, "enumerate_zeros", never)
    monkeypatch.setattr(division, "enumerate_zeros", never)
    M = QuadForm.dot_form(PrimeField(13), 6)
    W = FpMultiPoly(13, 6, {(1, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 3})
    assert antiderivative(M.as_poly() * W, M) == W


def test_reduce_mod_form(f5, rng):
    M = QuadForm.dot_form(f5, 5, radius=1)
    for _ in range(20):
        g1 = random_fp_poly(5, 5, 1, rng)
        g2 = random_fp_poly(5, 5, 1, rng)
        g = M.as_poly() * g1 + g2
        res = reduce_mod_form(g, M, 1)
        assert res is not None
        h1, h2 = res
        assert M.as_poly() * h1 + h2 == g and h2.degree() <= 1


def test_intrinsic_decompose(f5, rng):
    M = QuadForm.dot_form(f5, 5, radius=1)
    mp = M.as_poly()
    # constructed instances decompose
    for _ in range(10):
        g1 = FpMultiPoly.constant(5, 5, rng.randrange(5))
        g2 = random_fp_poly(5, 5, 1, rng)
        g = mp * g1 + g2
        res = intrinsic_decompose(g, M, 2)
        assert res[0] == "decomposition"
        assert mp * res[1] + res[2] == g
        assert res[1].degree() <= 0 and res[2].degree() <= 1
    # degree below s is trivially itself
    low = random_fp_poly(5, 5, 1, rng)
    kind, g1, g2 = intrinsic_decompose(low, M, 2)
    assert kind == "decomposition" and g1.is_zero() and g2 == low
    # generic top form yields a verified cube witness
    bad = FpMultiPoly(5, 5, {(2, 0, 0, 0, 0): 1})
    kind, cube = intrinsic_decompose(bad, M, 2)
    assert kind == "witness"
    n, h1, h2 = cube
    assert _cube_difference(bad, n, [h1, h2]) != 0
    for e1 in (0, 1):
        for e2 in (0, 1):
            pt = [(n[i] + e1 * h1[i] + e2 * h2[i]) % 5 for i in range(5)]
            assert M.evaluate(pt) == 0


def test_intrinsic_decompose_agreement(f5, rng):
    # decompose fails => an explicit witness cube exists (and is verified);
    # decompose succeeds => the s-fold difference vanishes identically on
    # Box_s by the algebraic identity, spot-checked on sampled cubes.
    M = QuadForm.dot_form(f5, 5, radius=1)
    mp = M.as_poly()
    tuples = None
    for _ in range(25):
        g = random_fp_poly(5, 5, 2, rng)
        res = intrinsic_decompose(g, M, 2)
        if res[0] == "witness":
            n, h1, h2 = res[1]
            assert _cube_difference(g, n, [h1, h2]) != 0
        else:
            _, g1, g2 = res
            assert mp * g1 + g2 == g
            if tuples is None:
                tuples = box_rows(M, 1)[:200].reshape(-1, 2, 5).tolist()
            for (n, h) in tuples:
                assert (g.evaluate([(n[i] + h[i]) % 5 for i in range(5)]) - g.evaluate(list(n))) % 5 == (
                    (g2.evaluate([(n[i] + h[i]) % 5 for i in range(5)]) - g2.evaluate(list(n))) % 5
                )


def test_gowers_equation_forward_and_adversarial(monkeypatch, f5, rng):
    M = QuadForm.dot_form(f5, 4, radius=1)
    mp = M.as_poly()
    forward = []
    for _ in range(10):
        p1 = random_fp_poly(5, 4, 0, rng)
        q1 = random_fp_poly(5, 4, 1, rng)
        q2 = FpMultiPoly.constant(5, 4, rng.randrange(5))
        P = mp * p1
        Q = mp * q1 + q2
        res = gowers_equation_solve(P, Q, M, 1)
        assert res[0] == "factorization"
        _, r1, r2, s1, s2 = res
        assert mp * r1 + r2 == P and mp * s1 + s2 == Q
        assert r2.degree() <= -1 and s2.degree() <= 0
        forward.append((P, Q))
    # the factorization is a proof: with both reductions made to fail, the
    # solver's own scan of Box_1 finds no witness on any forward instance
    with monkeypatch.context() as patch:
        patch.setattr(division, "reduce_mod_form", lambda *args: None)
        for P, Q in forward:
            with pytest.raises(TheoremViolation, match="^cube equation holds on Box_s"):
                gowers_equation_solve(P, Q, M, 1)
    # adversarial random pair: witness on Box_1
    P, Q = random_fp_poly(5, 4, 2, rng), random_fp_poly(5, 4, 3, rng)
    res = gowers_equation_solve(P, Q, M, 1)
    assert res[0] == "witness"
    n, h = res[1]
    m = [(n[i] + h[i]) % 5 for i in range(4)]
    assert M.evaluate(list(n)) == 0 and M.evaluate(m) == 0
    assert (P.evaluate(list(n)) + Q.evaluate(m) - Q.evaluate(list(n))) % 5 != 0


def test_first_gowers_witness_lex_determinism(f5):
    M = QuadForm.dot_form(f5, 4, radius=1)
    g = FpMultiPoly(5, 4, {(2, 0, 0, 0): 1})
    w1 = first_gowers_witness(g, M, 1)
    w2 = first_gowers_witness(g, M, 1)
    assert w1 == w2 and w1 is not None


def test_lift_nullstellensatz(rng):
    Mz = ZpQuadForm.sphere(5, 4, 1)
    mz = Mz.as_ratpoly()
    # constructed: M * (integer coefficients) + integer valued
    for _ in range(10):
        R = RatMultiPoly(4, {tuple((1 if i == j else 0) for i in range(4)): rng.randint(-4, 4) for j in range(2)})
        S = random_int_valued(4, 2, rng)
        P = mz * R + S
        p1, p0 = lift_nullstellensatz(P, Mz)
        assert mz * p1 + p0 == P
        assert p1.is_integer_coefficient() and p0.is_integer_valued()
    # integer valued P admits P1 = 0 style certificates
    S = random_int_valued(4, 3, rng)
    p1, p0 = lift_nullstellensatz(S, Mz)
    assert mz * p1 + p0 == S
    # witness branch
    F = FpMultiPoly(5, 4, {(1, 0, 0, 0): 1})
    with pytest.raises(WitnessFound) as info:
        lift_nullstellensatz(regular_lift(F), Mz)
    n = info.value.witness
    assert mz.evaluate(list(n)).denominator == 1
    assert regular_lift(F).evaluate(list(n)).denominator != 1


def test_lift_induce_coherence(rng):
    # F_p and Z/p Nullstellensatz agree through the tau/iota correspondence
    p = 5
    Mz = ZpQuadForm.sphere(p, 4, 2)
    Mbar = Mz.induced()
    for _ in range(15):
        Fbar = random_fp_poly(p, 4, 2, rng)
        P = regular_lift(Fbar)
        fp_kind, _ = nullstellensatz(Fbar, Mbar)
        try:
            lift_nullstellensatz(P, Mz)
            zp_kind = "certificate"
        except WitnessFound:
            zp_kind = "witness"
        assert fp_kind == zp_kind


def test_shifted_multiple_combinations_vanish(f5, rng):
    # P = M P0 + sum_i (M(. + h_i) - M) P_i vanishes on V(M)^{h_1..h_k}
    M = QuadForm.dot_form(f5, 4, radius=1)
    mp = M.as_poly()
    hs = [(1, 0, 0, 0), (0, 1, 0, 0)]
    parts = [random_fp_poly(5, 4, 1, rng) for _ in range(3)]
    P = mp * parts[0]
    for h, part in zip(hs, parts[1:]):
        P = P + (M.shifted(list(h)).as_poly() - mp) * part
    vmh = [
        n
        for n in enumerate_zeros(M)
        if all(M.shifted(list(h)).evaluate([int(x) for x in n]) == 0 for h in hs)
    ]
    assert vmh
    for n in vmh:
        assert P.evaluate([int(x) for x in n]) == 0


def test_sphere_vanishing_decompose(rng):
    Mz = ZpQuadForm.sphere(5, 4, 1)
    mz = Mz.as_ratpoly()
    # f = M^2 R
    f = mz * mz * RatMultiPoly.constant(4, 2)
    q0, rs = sphere_vanishing_decompose(f, Mz)
    acc = RatMultiPoly.zero(4)
    mpow = RatMultiPoly.constant(4, 1)
    for r in rs:
        acc = acc + mpow * r
        mpow = mpow * mz
    assert acc == f.scale(q0)
    # f = M itself
    q0, rs = sphere_vanishing_decompose(mz, Mz)
    assert q0 == 1 and rs[0].is_zero()
    # rejects non sphere-integral input with a witness
    with pytest.raises(NotSphereIntegral):
        sphere_vanishing_decompose(RatMultiPoly(4, {(1, 0, 0, 0): Fraction(1, 5)}), Mz)


def test_sphere_periodic_decompose(rng):
    Mz = ZpQuadForm.sphere(5, 4, 1)
    mz = Mz.as_ratpoly()
    # f = g / p with g integer valued: C = 0 branch, R0 = Q0 g
    g = random_int_valued(4, 3, rng)
    f = g.scale(Fraction(1, 5))
    q0, c, r0, rs = sphere_periodic_decompose(f, Mz)
    assert r0 == g.scale(q0) and c == 0
    # f = M^2 + c
    f2 = mz * mz + RatMultiPoly.constant(4, Fraction(3, 7))
    q0, c, r0, rs = sphere_periodic_decompose(f2, Mz)
    acc = RatMultiPoly.constant(4, c) + r0.scale(Fraction(1, 5))
    mpow = mz * mz
    for i in sorted(rs):
        acc = acc + mpow * rs[i]
        mpow = mpow * mz
    assert acc == f2.scale(q0)
    with pytest.raises(NotPartiallyPeriodic):
        sphere_periodic_decompose(RatMultiPoly(4, {(1, 0, 0, 0): Fraction(1, 25)}), Mz)


def test_division_cert_json(f5, rng):
    M = random_form(f5, 3, rng, min_rank=2)
    P = random_fp_poly(5, 3, 3, rng)
    cert = bij_division(P, M)
    blob = cert.to_json()
    assert blob["remainder_zero"] == cert.remainder_is_zero()
    assert "quotient" in blob and "B" in blob


def test_bij_division_zero_diagonal_form(f5, rng):
    # hyperbolic form with an all-zero diagonal forces the B_{i,j} pivot
    M = QuadForm(f5, [[0, 3, 0], [3, 0, 0], [0, 0, 0]])
    for _ in range(20):
        R = random_fp_poly(5, 3, 2, rng)
        P = M.as_poly() * R
        if P.degree() >= 5:
            continue
        cert = bij_division(P, M)
        assert cert.pivot == (1, 2)
        assert cert.remainder_is_zero()
        assert M.as_poly() * cert.divisor_multiple() == P


def test_gowers_equation_budget_honesty(f5, rng):
    # at s = 2 the full-cube hypothesis scan is outside desk budgets for
    # the minimal admissible rank; the op refuses rather than sampling
    from spherefp.counting import BudgetExceeded

    M = QuadForm.dot_form(f5, 5, radius=1)
    P = random_fp_poly(5, 5, 1, rng)
    Q = random_fp_poly(5, 5, 2, rng)
    with pytest.raises(BudgetExceeded, match=r"^Box_2 walk exceeds budget 1000000$"):
        gowers_equation_solve(P, Q, M, 2, budget=10**6)


def test_gowers_equation_refuses_box_s_before_any_scan(monkeypatch, f5):
    # the factorization comes first and is a proof on its own, so it takes
    # no budget and Box_2 is not scanned; a pair that does not factor needs
    # the scan, and a Box_2 that does not fit is refused by the walk's
    # count first, with its message, and the cube equation is never
    # evaluated: a scan would evaluate it on every block until the budget
    # ran out
    M = QuadForm.dot_form(f5, 5, radius=1)
    mp = M.as_poly()
    P = mp * FpMultiPoly.constant(5, 5, 2)
    Q = mp * FpMultiPoly(5, 5, {(1, 0, 0, 0, 0): 1}) + FpMultiPoly(5, 5, {(0, 1, 0, 0, 0): 3})

    def never(*args, **kwargs):
        raise AssertionError("the cube equation scanned Box_s before its fit check")

    monkeypatch.setattr(division, "_first_cube", never)
    monkeypatch.setattr(FpMultiPoly, "eval_many", never)
    for budget in (1, 10**5, 10**8):
        res = gowers_equation_solve(P, Q, M, 2, budget=budget)
        assert res == (
            "factorization",
            FpMultiPoly.constant(5, 5, 2),
            FpMultiPoly.zero(5, 5),
            FpMultiPoly(5, 5, {(1, 0, 0, 0, 0): 1}),
            FpMultiPoly(5, 5, {(0, 1, 0, 0, 0): 3}),
        )
    # Q2 = 3 n_2 + n_1 n_2 has degree 2 > s - 1: no factorization
    Q = Q + FpMultiPoly(5, 5, {(1, 1, 0, 0, 0): 1})
    with pytest.raises(BudgetExceeded, match=r"^enumeration of size 3125 exceeds budget 1$"):
        gowers_equation_solve(P, Q, M, 2, budget=1)
    with pytest.raises(BudgetExceeded, match=r"^Box_2 walk exceeds budget 100000$"):
        gowers_equation_solve(P, Q, M, 2, budget=10**5)


def test_gowers_equation_factorization_past_the_budget():
    # the sphere of F_5^6 has |Box_2| = 5,922,937,500 tuples, past the default
    # budget, and the factorization answers without any of them
    f5 = PrimeField(5)
    M = QuadForm.dot_form(f5, 6, radius=1)
    n1 = FpMultiPoly(5, 6, {(1, 0, 0, 0, 0, 0): 1})
    Q2 = FpMultiPoly(5, 6, {(0, 1, 0, 0, 0, 0): 3})
    res = gowers_equation_solve(M.as_poly() * FpMultiPoly.constant(5, 6, 2), M.as_poly() * n1 + Q2, M, 2)
    assert res == ("factorization", FpMultiPoly.constant(5, 6, 2), FpMultiPoly.zero(5, 6), n1, Q2)
    assert counting.gowers_set(M, 2) == 5922937500


def test_gowers_equation_s1_budget_is_box_1s_rule(monkeypatch, f5, rng):
    # a factoring pair is answered at any budget; the s = 1 scan of a pair
    # that does not factor is checked by the walk's rule for Box_1,
    # N (N + 1) tuples, with its message, before any polynomial is evaluated
    M = QuadForm.dot_form(f5, 4, radius=1)
    N = len(enumerate_zeros(M))
    mp = M.as_poly()
    P = mp * random_fp_poly(5, 4, 0, rng)
    Q = mp * random_fp_poly(5, 4, 1, rng) + FpMultiPoly.constant(5, 4, 2)
    for budget in (1, N * N, N * N + N):
        assert gowers_equation_solve(P, Q, M, 1, budget=budget)[0] == "factorization"
    P = P + FpMultiPoly.constant(5, 4, 1)  # P2 = P(0) must be 0 at s = 1
    assert gowers_equation_solve(P, Q, M, 1, budget=N * N + N)[0] == "witness"
    monkeypatch.setattr(FpMultiPoly, "eval_many", None)  # nothing is evaluated before the refusal
    for budget in (N * N + N - 1, N * N):
        with pytest.raises(BudgetExceeded, match=rf"^Box_1 walk exceeds budget {budget}$"):
            gowers_equation_solve(P, Q, M, 1, budget=budget)
        with pytest.raises(BudgetExceeded, match=rf"^Box_1 walk exceeds budget {budget}$"):
            counting._metered_gowers_set(M, 1, None, budget)


def test_gowers_scans_refuse_another_arity_before_any_enumeration(monkeypatch, f5):
    # a polynomial in 4 variables against a form in 6: the witness scan
    # crashed with numpy's broadcast ValueError, and so did the cube
    # equation at s >= 2, while at s = 1 it refused only after its fit
    # check; now ArityMismatch comes before any enumeration, at every s
    # (after s and, in the cube equation, the rank), with the message
    # eval_array gives a point of another length
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the arity check")

    monkeypatch.setattr(counting, "_solve_zeros", never)
    monkeypatch.setattr(counting, "_zero_set_class", never)
    M = QuadForm.dot_form(f5, 6, radius=1)  # rank 6: the cube equation's s + 3 for s <= 3
    short = FpMultiPoly(5, 4, {(1, 0, 0, 0): 1})
    fits = FpMultiPoly(5, 6, {(1, 0, 0, 0, 0, 0): 1})
    for s in (1, 2, 3):
        with pytest.raises(ArityMismatch, match="^point arity mismatch$"):
            first_gowers_witness(short, M, s)
        for P, Q in ((short, fits), (fits, short)):
            with pytest.raises(ArityMismatch, match="^point arity mismatch$"):
                gowers_equation_solve(P, Q, M, s)


# -- the fiber tables against the Fraction basis-change paths -------------------


def _fiber_table_reference(f, base_points, p):
    """Fiber coordinates through fiber_map and binomial_coeffs, row per point."""
    grid = _binom_basis_indices(f.nvars, max(f.degree(), 0))
    rows = []
    for n0 in base_points:
        coords = f.fiber_map(list(n0), p).binomial_coeffs()
        assert set(coords) <= set(grid)
        rows.append([coords.get(idx, Fraction(0)) for idx in grid])
    return rows


@functools.cache
def _axis_differences(p):
    """K[n0][k][i]: the i-th forward difference at 0 of m -> (n0 + p m)^k,
    by repeated differencing of its values, for n0, k, i < p."""
    out = []
    for n0 in range(p):
        rows = []
        for k in range(p):
            vals = [(n0 + p * m) ** k for m in range(p)]
            diffs = []
            for _ in range(p):
                diffs.append(vals[0])
                vals = [b - a for a, b in zip(vals, vals[1:])]
            rows.append(diffs)
        out.append(rows)
    return out


def _int64_bound(f, p):
    """sum_e |den f_e| prod_j max_{n0, i} |K[n0][e_j][i]|: the fiber table is
    int64 exactly when this (and den) is below 2^63."""
    K = _axis_differences(p)
    top = [max(abs(x) for rows in K for x in rows[k]) for k in range(p)]
    den = f.denominator_lcm()
    return sum(abs(c * den) * prod(top[k] for k in e) for e, c in f.terms.items())


def _factors_around_int64(f, p):
    """The largest integer s with s * bound < 2^63 and the smallest with
    s * bound >= 2^63, each coprime to den so that f.scale(s) keeps den and
    its bound is s * bound."""
    den, bound = f.denominator_lcm(), _int64_bound(f, p)
    lo = (2**63 - 1) // bound
    hi = lo + 1
    while gcd(lo, den) != 1:
        lo -= 1
    while gcd(hi, den) != 1:
        hi += 1
    assert _int64_bound(f.scale(lo), p) < 2**63 <= _int64_bound(f.scale(hi), p)
    return lo, hi


def _check_fiber_table(g, pts, p, object_dtype, want=None):
    """The fiber table of g at pts as Fractions, checked against want, or
    against _fiber_table_reference when want is None."""
    grid, numerators, den = _fiber_coefficient_table(g, pts, p)
    assert (numerators.dtype == object) == object_dtype
    assert grid == _binom_basis_indices(g.nvars, max(g.degree(), 0))
    assert numerators.shape == (len(pts), len(grid))
    table = [[Fraction(x, den) for x in row] for row in numerators.tolist()]
    assert table == (_fiber_table_reference(g, pts, p) if want is None else want)
    return table


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fiber_axis_table_matches_forward_differences(p):
    K = _axis_differences(p)
    for deg in range(p):
        table, table64, top = _fiber_axis_table(p, deg)
        assert table.shape == table64.shape == (p, (deg + 1) ** 2)
        assert not (table.flags.writeable or table64.flags.writeable)
        for n0 in range(p):
            want = [K[n0][k][i] for k in range(deg + 1) for i in range(deg + 1)]
            assert table[n0].tolist() == want
            assert table64[n0].tolist() == [x if abs(x) < 2**63 else 0 for x in want]
        assert top == [max(abs(K[n0][k][i]) for n0 in range(p) for i in range(p)) for k in range(deg + 1)]
    # the int64 copy masks entries at p = 13 only
    assert any(abs(x) >= 2**63 for rows in K for x in rows[p - 1]) == (p == 13)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_fiber_table_matches_fiber_map(p, rng):
    sphere = ZpQuadForm.sphere(p, 4, 1).sphere_points()
    for d in range(1, 5):
        for deg in range(5):
            top = tuple([deg] + [0] * (d - 1))
            f = random_rat_poly(d, deg, rng, denominators=(1, 3, p, p * p))
            f = f + RatMultiPoly(d, {top: Fraction(rng.randint(1, 9), p)})
            base_points = sorted({tuple(rng.randrange(p) for _ in range(d)) for _ in range(4)})
            big = f.scale(10**30)  # past the int64 bound: Python integers
            tiny = f.scale(Fraction(1, p**30))  # so is den, with the same c_e
            for g in (f, big, tiny, RatMultiPoly.zero(d), RatMultiPoly.constant(d, Fraction(-4, 3))):
                for pts in (base_points, base_points[:1]):
                    _check_fiber_table(g, pts, p, g is big or g is tiny)
            if (d, deg) == (4, 4):
                want = _check_fiber_table(f, sphere, p, False)
                # one factor on each side of the int64 bound; the fiber map
                # is linear, so the reference scales with f
                lo, hi = _factors_around_int64(f, p)
                for s, object_dtype in ((lo, False), (hi, True)):
                    _check_fiber_table(f.scale(s), sphere, p, object_dtype, [[s * x for x in row] for row in want])


def test_fiber_table_rejects_base_points_outside_residues():
    f = RatMultiPoly(2, {(1, 1): Fraction(1, 5)})
    for pts in ([(0, 5)], [(-1, 0)]):
        with pytest.raises(ValueRangeError, match="base points"):
            _fiber_coefficient_table(f, pts, 5)


def test_partial_periodicity_witness_matches_fiber_scan(rng):
    p, d = 5, 3
    omega = list(map(tuple, ZpQuadForm.sphere(p, d, 1).sphere_points().tolist()))
    zero = (0,) * d
    witnesses = 0
    for _ in range(30):
        f = random_rat_poly(d, 3, rng, denominators=(1, p, p * p))
        shuffled = omega[:]
        rng.shuffle(shuffled)
        expected = None
        for n0 in sorted(omega):
            for idx, c in sorted(f.fiber_map(list(n0), p).binomial_coeffs().items()):
                if idx != zero and c.denominator != 1:
                    expected = (n0, idx)
                    break
            if expected:
                break
        witnesses += expected is not None
        assert partial_periodicity_witness(f, shuffled, p) == expected
    assert witnesses


def _full_table_scan(f, base_points, p, skip_constant=False):
    """The fiber witness read off one table of every base point: the least
    failing row in lex order, its first failing index in grid order."""
    if f.is_zero() or len(base_points) == 0:
        return None
    base = np.asarray(base_points, dtype=np.int64).reshape(-1, f.nvars)
    grid, numerators, den = _fiber_coefficient_table(f, base, p)
    bad = numerators % den != 0
    if skip_constant:
        bad[:, 0] = False
    rows = np.flatnonzero(bad.any(axis=1))
    if len(rows) == 0:
        return None
    b = rows[np.lexsort(base[rows].T[::-1])[0]]
    return tuple(map(int, base[b])), grid[int(np.argmax(bad[b]))]


def test_chunked_fiber_scan_matches_the_full_table(monkeypatch, rng):
    # the scan sorts the rows once and stops at the first chunk with a
    # witness: any chunk size, any row order, gives the full table's witness
    p = 5
    witnesses = 0
    for _ in range(150):
        d = rng.choice((2, 3, 4))
        pts = ZpQuadForm.sphere(p, d, rng.randrange(p)).sphere_points()
        f = random_rat_poly(d, rng.randrange(4), rng, denominators=(1, 1, 3, p, p * p))
        shuffled = pts[rng.sample(range(len(pts)), len(pts))]
        skip = rng.random() < 0.5
        want = _full_table_scan(f, pts, p, skip)
        witnesses += want is not None
        monkeypatch.setattr(fpoly, "EVAL_CHUNK_CELLS", rng.randint(1, 1000))
        assert _first_noninteger_fiber(f, shuffled, p, skip) == want
    assert 10 < witnesses < 140


def test_l_part_scan_builds_the_first_chunk_alone(monkeypatch):
    # with a prime l != p in a binomial denominator every fiber fails, so of
    # the 78,000 points of the sphere of F_5^8 only the first chunk of rows
    # gets a fiber table
    p, d = 5, 8
    pts = ZpQuadForm.sphere(p, d, 1).sphere_points()
    x = [RatMultiPoly.variable(d, j) for j in range(d)]
    f = (x[0] * x[1]).scale(Fraction(1, 3)) + x[2].scale(Fraction(2, 5))
    want = _full_table_scan(f, pts[:1], p)
    built = []
    table = fpoly._fiber_coefficient_table
    monkeypatch.setattr(fpoly, "_fiber_coefficient_table", lambda *a: built.append(len(a[1])) or table(*a))
    assert _first_noninteger_fiber(f, pts, p) == want and want[0] == tuple(map(int, pts[0]))
    assert len(pts) == 78000 and built == [fpoly.EVAL_CHUNK_CELLS // len(_binom_basis_indices(d, 2))]


def test_l_part_witness_solves_only_the_first_line(monkeypatch):
    # with an l-part the witness is at the first point of V_p(M): on the
    # sphere of F_5^10 (1,952,500 points) only the line through the zero
    # prefix is solved, t^2 = 1, and nothing enumerates V_p(M)
    def never(*args, **kwargs):
        raise AssertionError("V_p(M) was enumerated")

    monkeypatch.setattr(counting, "_solve_zeros", never)
    monkeypatch.setattr(ZpQuadForm, "sphere_points", never)
    p, d = 5, 10
    M = ZpQuadForm.sphere(p, d, 1)
    x = [RatMultiPoly.variable(d, j) for j in range(d)]
    f = (x[0] * x[1]).scale(Fraction(1, 3)) + x[2].scale(Fraction(2, 5))
    want = ((0,) * (d - 1) + (1,), (1, 1) + (0,) * (d - 2))
    for solver, error in (
        (sphere_vanishing_decompose, NotSphereIntegral),
        (sphere_periodic_decompose, NotPartiallyPeriodic),
    ):
        with pytest.raises(error) as err:
            solver(f, M, p)  # the one line's p points
        assert err.value.witness == want
        with pytest.raises(BudgetExceeded, match=rf"^enumeration of size {p} exceeds budget {p - 1}$"):
            solver(f, M, p - 1)


def has_l_part(f, p, skip_constant):
    """Whether a binomial coordinate of f (the constant one passed over when
    skip_constant) has a prime other than p in its denominator."""
    nums, den = f._binomial_numerators()
    zero = (0,) * f.nvars
    rest = den // gcd(den, *(n for idx, n in nums.items() if not (skip_constant and idx == zero)))
    while rest % p == 0:
        rest //= p
    return rest > 1


def test_l_part_scan_matches_the_full_scan(rng):
    # the scan tries the fiber at the first point of V_p(M) before it
    # enumerates: the witness equals the full table's over all of V_p(M),
    # whether or not f has an l-part, and with an l-part it is that first point
    kinds = {True: 0, False: 0}
    while sum(kinds.values()) < 120:
        p = rng.choice((5, 7))
        M = _random_zp_form_at(p, rng.randint(3, 5 if p == 5 else 4), rng)
        if M.p_rank() < 3:
            continue
        f = random_rat_poly(M.d, rng.randrange(p), rng, denominators=(1, 2, 3, 7, p, 3 * p, p * p))
        skip = rng.random() < 0.5
        error = NotPartiallyPeriodic if skip else NotSphereIntegral
        pts = M.sphere_points()
        want = _full_table_scan(f, pts, p, skip)
        with pytest.raises(error) if want else contextlib.nullcontext() as err:
            division._scan_fibers(f, M, DEFAULT_BUDGET, error, skip)
        assert (err.value.witness if want else None) == want
        l_part = has_l_part(f, p, skip)
        if l_part:
            assert want[0] == tuple(map(int, pts[0]))
        kinds[l_part] += 1
    assert min(kinds.values()) > 20


def _reference_columns(M, df, slots):
    """p^k N^i C(n, idx) per slot (i, idx, k) as RatMultiPoly products in
    binomial coordinates, rows over the grid of degree df."""
    eq = _binom_basis_indices(M.d, df)
    npoly = M.integer_poly()
    cols = []
    for i, idx, k in slots:
        col = RatMultiPoly.from_binomial(M.d, {idx: 1}).scale(M.p**k)
        for _ in range(i):
            col = col * npoly
        coords = col.binomial_coeffs()
        assert set(coords) <= set(eq)
        cols.append([int(coords.get(g, 0)) for g in eq])
    return [[col[r] for col in cols] for r in range(len(eq))]


def _vanishing_blocks(d, df):
    t = df // 2
    return [(i, t - i, _binom_basis_indices(d, df - 2 * i)) for i in range(t + 1)]


def _periodic_blocks(d, df):
    t = df // 2
    s_star = max(1, t)
    return [(0, s_star - 1, _binom_basis_indices(d, df)[1:])] + [
        (i, s_star - i, _binom_basis_indices(d, df - 2 * i)) for i in range(2, t + 1)
    ]


def _reference_system(M, df, blocks):
    """_reference_columns for the columns of the blocks (i, k, indices)."""
    return _reference_columns(M, df, [(i, idx, k) for i, k, indices in blocks for idx in indices])


def _random_zp_form_at(p, d, r):
    """A symmetric integer form with random u and v (any p-rank)."""
    A = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            A[i][j] = A[j][i] = r.randrange(-p, p)
    return ZpQuadForm(p, A, [r.randrange(-p, p) for _ in range(d)], r.randrange(-p, p))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 7, 11, 13]), st.sampled_from([3, 4]))
def test_decomposition_systems_match_polynomial_columns(seed, p, d):
    # the closed-form columns against products of RatMultiPoly, in both
    # solution shapes, on a random form with u and v
    r = random.Random(seed)
    M = _random_zp_form_at(p, d, r)
    for df in range(min(5, p)):
        for blocks in (_vanishing_blocks(d, df), _periodic_blocks(d, df)):
            assert division._system_matrix(M, df, blocks) == _reference_system(M, df, blocks)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 7, 11]), st.booleans())
def test_p_free_scale_does_not_change_solvability(seed, p, periodic):
    # the fact that leaves the sphere solvers no p-free fallback: block 0 of
    # each system is p^e I, so for c coprime to p, A z = c rhs has an integer
    # solution exactly when A z = rhs has one
    r = random.Random(seed)
    d, df = r.choice([3, 4]), r.randint(0, 4)
    M = _random_zp_form_at(p, d, r)
    blocks = (_periodic_blocks if periodic else _vanishing_blocks)(d, df)
    amat = division._system_matrix(M, df, blocks)[int(periodic) :]
    ncols = sum(len(indices) for _, _, indices in blocks)
    reduction = _zlinalg._hermite_reduce(amat)
    image = [sum(map(operator.mul, row, [r.randint(-9, 9) for _ in range(ncols)])) for row in amat]
    for rhs in (
        image,
        [b + r.choice([0, 0, 1, p]) * r.randint(-3, 3) for b in image],
        [r.randint(-50, 50) for _ in amat],
    ):
        c = r.choice([k for k in range(2, 40) if k % p])
        plain, scaled = (_zlinalg.int_solve(reduction, b, ncols) for b in (rhs, [c * x for x in rhs]))
        assert (plain is None) == (scaled is None)
        for z, b in ((plain, rhs), (scaled, [c * x for x in rhs])):
            assert z is None or [sum(map(operator.mul, row, z)) for row in amat] == b


def test_decomposition_systems_are_built_per_value_key(monkeypatch):
    # one memo of reductions: two form objects with equal values share an
    # entry, a changed entry of the (public, mutable) form data gets its
    # own, and a hit builds no matrix
    blocks = _periodic_blocks(4, 4)
    a, b = ZpQuadForm.sphere(5, 4, 1), ZpQuadForm.sphere(5, 4, 1)
    ncols = sum(len(indices) for _, _, indices in blocks)
    rhs = [0] * (len(_binom_basis_indices(4, 4)) - 1)
    rhs[0] = 5
    division._reduced_system.cache_clear()
    z = division._solve_system(a, 4, blocks, 1, rhs)
    assert z is not None and division._solve_system(b, 4, blocks, 1, rhs) == z
    info = division._reduced_system.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert info.maxsize == division.REDUCTION_CACHE_SIZE
    b.v -= 1
    other = [1] + rhs[1:]
    want = _int_solve_reference(_reference_system(b, 4, blocks)[1:], other)
    assert division._solve_system(b, 4, blocks, 1, other) == want
    assert division._reduced_system.cache_info().currsize == 2

    def never(*args):
        raise AssertionError("a memo hit built the system")

    monkeypatch.setattr(division, "_system_matrix", never)
    assert division._solve_system(a, 4, blocks, 1, rhs) == z
    assert len(z) == ncols


def test_rank_preconditions_raise_typed_errors(f7):
    # rank 2 forms: every rank hypothesis fails before any other work
    A = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    Mz = ZpQuadForm(5, A, None, -1)
    M = QuadForm(f7, A, [0] * 4, 6)
    x = RatMultiPoly.variable(4, 0)
    for solver in (lift_nullstellensatz, sphere_vanishing_decompose, sphere_periodic_decompose):
        with pytest.raises(RankHypothesisFailed, match="p-rank"):
            solver(x, Mz)
    P = FpMultiPoly(7, 4, {(1, 0, 0, 0): 1})
    with pytest.raises(RankHypothesisFailed, match="rank"):
        nullstellensatz(P, M)
    with pytest.raises(RankHypothesisFailed, match="rank"):
        dichotomy(P, M, 0.3)
    with pytest.raises(RankHypothesisFailed, match="rank"):
        antiderivative(P, M)
    with pytest.raises(RankHypothesisFailed, match="rank"):
        gowers_equation_solve(P, P, QuadForm.dot_form(f7, 3, radius=1), 1)
    # still a ValueError, so the CLI keeps its input-error exit code
    assert issubclass(RankHypothesisFailed, ValueError)


def test_z_over_p_preconditions_raise_value_range_error():
    # deg >= p (and, for the lifted Nullstellensatz, values outside Z/p)
    # raise fpoly.ValueRangeError before any other work, as induce does
    Mz = ZpQuadForm.sphere(5, 4, 1)
    high = RatMultiPoly(4, {(5, 0, 0, 0): Fraction(1)})
    for solver in (lift_nullstellensatz, sphere_vanishing_decompose, sphere_periodic_decompose):
        with pytest.raises(ValueRangeError, match="deg") as info:
            solver(high, Mz)
        assert type(info.value) is ValueRangeError
    with pytest.raises(ValueRangeError, match="Z/p") as info:
        lift_nullstellensatz(RatMultiPoly(4, {(1, 0, 0, 0): Fraction(1, 25)}), Mz)
    assert type(info.value) is ValueRangeError
    # still a ValueError, so the CLI keeps its input-error exit code
    assert issubclass(ValueRangeError, ValueError)


# -- the batched witness scan against the scalar recursion ----------------------


def _witness_scan_reference(g, M, s, budget):
    """The recursive lexicographic scan with one scalar _cube_difference per
    cube.  Returns (witness or None, scan nodes used) and raises
    BudgetExceeded once the node count passes budget."""
    p = M.p
    space = all_points(p, M.d)
    nodes = 0

    def extend(n, hs):
        keep = M.shifted(list(n)).eval_array(space) == 0
        for h_prev in hs:
            ha = np.array(M.A.vecmat(list(h_prev)), dtype=np.int64)
            keep &= (space @ ha) % p == 0
        return space[keep]

    def recurse(n, hs):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("witness scan budget exhausted")
        if len(hs) == s:
            return (n,) + tuple(hs) if _cube_difference(g, n, hs) != 0 else None
        for h in extend(n, hs):
            found = recurse(n, hs + [tuple(int(x) for x in h)])
            if found:
                return found
        return None

    for n in enumerate_zeros(M):
        found = recurse(tuple(int(x) for x in n), [])
        if found:
            return found, nodes
    return None, nodes


@pytest.mark.parametrize("p, d, s", [(5, 4, 1), (5, 5, 2), (7, 4, 2), (5, 4, 3), (5, 3, 0)])
def test_first_gowers_witness_matches_scalar_scan(monkeypatch, p, d, s, rng):
    # the walk refuses budgets below p^d before it enumerates V(M); lift
    # that guard so budgets at and below the node count reach the scan
    monkeypatch.setattr(counting, "enumerate_zeros", lambda M, S, budget: enumerate_zeros(M, S, p**d))
    field = PrimeField(p)
    cap = 10000  # scans the reference cannot finish within cap must raise on both sides
    for trial in range(10):
        if trial % 2:
            M = random_form(field, d, rng, min_rank=3)
        else:
            M = QuadForm.dot_form(field, d, radius=rng.randrange(1, p))
        g = random_fp_poly(p, d, s, rng, nterms=rng.choice((1, 3, 8)))
        if trial % 5 == 0:  # a multiple of M: at s = 0 the scan finds nothing
            g = M.as_poly() * g
        else:  # degree exactly s, so that most scans end in a witness
            top = [0] * d
            for _ in range(s):
                top[rng.randrange(d)] += 1
            g = g + FpMultiPoly(p, d, {tuple(top): rng.randrange(1, p)})
        try:
            want, used = _witness_scan_reference(g, M, s, cap)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                first_gowers_witness(g, M, s, cap)
            continue
        assert used >= 1
        assert first_gowers_witness(g, M, s, used) == want
        with pytest.raises(BudgetExceeded):
            first_gowers_witness(g, M, s, used - 1)


def test_cube_differences_match_scalar(rng):
    for p, d, s in [(5, 3, 0), (5, 3, 1), (7, 4, 2), (5, 2, 3)]:
        g = random_fp_poly(p, d, s + 1, rng)
        rows = 20
        # coordinates outside [0, p) must be reduced like the scalar path does
        n = np.array([[rng.randrange(-p, 2 * p) for _ in range(d)] for _ in range(rows)])
        hs = [np.array([[rng.randrange(-p, 2 * p) for _ in range(d)] for _ in range(rows)]) for _ in range(s)]
        want = [_cube_difference(g, n[i].tolist(), [h[i].tolist() for h in hs]) for i in range(rows)]
        assert _cube_differences(g, n, hs).tolist() == want
        # a single base point broadcasts against arrays of shifts, and
        # single points throughout give one row
        if s:
            want = [_cube_difference(g, n[0].tolist(), [h[i].tolist() for h in hs]) for i in range(rows)]
            assert _cube_differences(g, n[0], hs).tolist() == want
        single = _cube_differences(g, n[1].tolist(), [h[1].tolist() for h in hs])
        assert single.tolist() == [_cube_difference(g, n[1].tolist(), [h[1].tolist() for h in hs])]


def _box2_prefix(M, count):
    """The lexicographically first count tuples of Box_2(V(M)): n in V(M),
    M(n + h) = 0 for both shifts and (h_1 A) . h_2 = 0."""
    p = M.p
    space = all_points(p, M.d)
    out = []
    for n in enumerate_zeros(M):
        on = space[M.shifted(n.tolist()).eval_array(space) == 0]
        for h1 in on:
            ha = np.array(M.A.vecmat(h1.tolist()), dtype=np.int64)
            for h2 in on[(on @ ha) % p == 0]:
                out.append((tuple(n.tolist()), tuple(h1.tolist()), tuple(h2.tolist())))
                if len(out) == count:
                    return out
    return out


def test_gowers_equation_s2_matches_per_tuple_check(monkeypatch, f5, rng):
    # the smallest admissible Box_2 (p = 5, d = 5, rank 5) has about 5^11
    # tuples, beyond a test's budget, so both checks run on a genuine
    # lexicographic prefix of it
    M = QuadForm.dot_form(f5, 5, radius=1)
    mp = M.as_poly()
    box = _box2_prefix(M, 2000)

    def blocks(M, s, S, budget):
        # the prefix as gowers_blocks walks it: one block per (n, h_1)
        for (n, h1), group in itertools.groupby(box, key=lambda tup: tup[:2]):
            H = np.array([tup[2] for tup in group], dtype=np.int64)
            yield (np.array(n), np.array(h1)), H, budget

    monkeypatch.setattr(division, "gowers_blocks", blocks)
    # the fit check before the scan counts the faked Box_2, not the real one
    monkeypatch.setattr(division, "_metered_gowers_set", lambda M, s, S, budget: len(box))

    def per_tuple(P, Q):
        for tup in box:
            n, hs = tup[0], list(tup[1:])
            if (_cube_difference(P, n, hs[:1]) + _cube_difference(Q, n, hs)) % 5:
                return tup
        return None

    witnesses = 0
    for _ in range(6):
        P = random_fp_poly(5, 5, 2, rng)
        Q = random_fp_poly(5, 5, 3, rng, nterms=2)
        want = per_tuple(P, Q)
        res = gowers_equation_solve(P, Q, M, 2)
        assert want is not None and res == ("witness", want)
        witnesses += box.index(want) > 0
    assert witnesses  # at least one witness past the first row
    # P = M P1, Q = M Q1 + Q2 with deg Q2 <= 1: the equation holds on every tuple
    P = mp * FpMultiPoly.constant(5, 5, rng.randrange(5))
    Q = mp * random_fp_poly(5, 5, 1, rng) + random_fp_poly(5, 5, 1, rng)
    assert per_tuple(P, Q) is None
    assert gowers_equation_solve(P, Q, M, 2)[0] == "factorization"
    # and the solver's own scan agrees once both reductions are made to fail
    monkeypatch.setattr(division, "reduce_mod_form", lambda *args: None)
    with pytest.raises(TheoremViolation, match="^cube equation holds on Box_s"):
        gowers_equation_solve(P, Q, M, 2)


def _box1_first(P, Q, M, order="h"):
    """The first (n, h) of Box_1(V(M)) with P(n) + Q(n + h) - Q(n) != 0, by
    one scalar _cube_difference per pair, n in lexicographic order and for
    each n the h (order "h") or the m = n + h (order "m") in lexicographic
    order; None if the equation holds on all of Box_1."""
    p = M.p
    zeros = [tuple(n) for n in enumerate_zeros(M).tolist()]
    on = set(zeros)
    for n in zeros:
        if order == "h":
            hs = itertools.product(range(p), repeat=M.d)
        else:
            hs = (tuple((a - b) % p for a, b in zip(m, n)) for m in zeros)
        for h in hs:
            m = tuple((a + b) % p for a, b in zip(n, h))
            if m in on and (_cube_difference(P, n, []) + _cube_difference(Q, n, [h])) % p:
                return n, h
    return None


def test_gowers_equation_s1_matches_per_tuple_check(f5, rng):
    # s = 1 takes the path of every s: the witness is the first (n, h) in
    # lexicographic order, as in first_gowers_witness, not the first (n, m)
    sphere = QuadForm.dot_form(f5, 4, radius=1)
    reordered = 0
    for trial in range(16):
        if trial % 2:  # a shifted sphere with P = 0
            M = sphere.shifted([rng.randrange(5) for _ in range(4)])
            P = FpMultiPoly.zero(5, 4)
        else:
            M, P = sphere, random_fp_poly(5, 4, 2, rng)
        Q = random_fp_poly(5, 4, 3, rng)
        want = _box1_first(P, Q, M)
        res = gowers_equation_solve(P, Q, M, 1)
        if want is None:
            assert res[0] == "factorization"
        else:
            assert res == ("witness", want)
            reordered += want != _box1_first(P, Q, M, order="m")
    assert reordered  # at least one witness where the (n, m) order differs


def test_gowers_equation_s1_witness_builds_no_pair_table(rng):
    # at p = 17, d = 4, N = |V(M)| is about 4900: an N x N int64 table of
    # pairs would take about 190 MB, the scan a few blocks of N rows
    import tracemalloc

    M = QuadForm.dot_form(PrimeField(17), 4, radius=1)
    P, Q = random_fp_poly(17, 4, 2, rng), random_fp_poly(17, 4, 3, rng)
    tracemalloc.start()
    try:
        res = gowers_equation_solve(P, Q, M, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res[0] == "witness"
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- the re-verify steps reject a corrupted certificate ---------------------------


def _shift_first_coordinate(monkeypatch):
    # every solution int_solve returns comes back with its first entry + 1
    real = division.int_solve

    def shifted(*args):
        z = real(*args)
        return None if z is None else [z[0] + 1] + z[1:]

    monkeypatch.setattr(division, "int_solve", shifted)


def test_vanishing_reverify_rejects_a_corrupted_solution(monkeypatch, rng):
    # the first coordinate is that of C(n, 0) in R_0: Q0 f - sum M^i R_i is -1
    Mz = ZpQuadForm.sphere(5, 4, 1)
    mz = Mz.as_ratpoly()
    f = random_int_valued(4, 4, rng) + mz * random_int_valued(4, 2, rng)
    sphere_vanishing_decompose(f, Mz)
    _shift_first_coordinate(monkeypatch)
    with pytest.raises(TheoremViolation, match="sphere-vanishing decomposition failed to re-verify"):
        sphere_vanishing_decompose(f, Mz)


def test_periodic_reverify_rejects_a_corrupted_solution(monkeypatch, rng):
    # R_0 has no constant coordinate: the first is that of C(n, e_4), so
    # Q0 f - R_0/p - sum M^i R_i picks up -n_4/p and is no longer constant
    Mz = ZpQuadForm.sphere(5, 4, 1)
    mz = Mz.as_ratpoly()
    f = mz * mz + random_int_valued(4, 3, rng).scale(Fraction(1, 5)) + RatMultiPoly.constant(4, Fraction(3, 7))
    sphere_periodic_decompose(f, Mz)
    _shift_first_coordinate(monkeypatch)
    with pytest.raises(TheoremViolation, match="periodic decomposition failed to re-verify"):
        sphere_periodic_decompose(f, Mz)


def test_lift_reverify_rejects_a_corrupted_certificate(monkeypatch, rng):
    # P1 = f2 + 1 still has integer coefficients and P0 is unchanged, so
    # only the identity P = M P1 + P0 fails, by M
    Mz = ZpQuadForm.sphere(5, 4, 1)
    P = Mz.as_ratpoly() * random_int_valued(4, 2, rng) + random_int_valued(4, 4, rng)
    lift_nullstellensatz(P, Mz)
    real = division.p_expand

    def shifted(f, p):
        f1, f2 = real(f, p)
        return f1, f2 + RatMultiPoly.constant(f2.nvars, 1)

    monkeypatch.setattr(division, "p_expand", shifted)
    with pytest.raises(TheoremViolation, match="lifted certificate failed to re-verify"):
        lift_nullstellensatz(P, Mz)


# -- the sphere solvers' right-hand sides ------------------------------------------


def _scaled_rhs_reference(f, indices, p, depth):
    """(q0, rhs) from Fraction binomial coordinates: q0 the lcm of their
    denominators with every factor p removed, rhs the coordinates times
    q0 p^depth, or None when one is not an integer."""
    coords = f.binomial_coeffs()
    q0 = lcm(*(coords.get(idx, Fraction(0)).denominator for idx in indices))
    while q0 % p == 0:
        q0 //= p
    scaled = [coords.get(idx, 0) * q0 * p**depth for idx in indices]
    if any(c.denominator != 1 for c in scaled):
        return q0, None
    return q0, [int(c) for c in scaled]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 7]), st.integers(0, 3), st.booleans())
def test_scaled_rhs_matches_fraction_products(seed, p, depth, skip_zero):
    r = random.Random(seed)
    nvars = r.randint(1, 4)
    f = random_rat_poly(nvars, r.randint(0, 4), r, denominators=(1, 2, 3, p, 2 * p, p * p, 3 * p**3))
    indices = _binom_basis_indices(nvars, max(f.degree(), 0))[1 if skip_zero else 0 :]
    nums, den = f._binomial_numerators()
    ref_q0, rhs = _scaled_rhs_reference(f, indices, p, depth)
    # an l-part (ref_q0 != 1) leaves no right-hand side: the solvers scan for its witness
    assert division._scaled_rhs(nums, den, indices, p, depth) == (rhs if ref_q0 == 1 else None)


def test_sphere_solver_depth_checks_keep_their_messages(monkeypatch):
    # with the fiber scan passed over, f = (C(n_1, 2) + n_2) / 25 is too
    # deep for both shapes
    monkeypatch.setattr(division, "_first_noninteger_fiber", lambda *a, **k: None)
    Mz = ZpQuadForm.sphere(5, 4, 1)
    g = RatMultiPoly.from_binomial(4, {(2, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    deep = g.scale(Fraction(1, 25))
    with pytest.raises(TheoremViolation) as err:
        sphere_vanishing_decompose(deep, Mz)
    assert str(err.value) == "p-adic depth of f exceeds floor(deg f / 2); no decomposition exists"
    with pytest.raises(TheoremViolation) as err:
        sphere_periodic_decompose(deep, Mz)
    assert str(err.value) == "p-adic depth exceeds the periodic decomposition shape"


# -- certificate first: the same outcomes as the scan-first order -----------------


def _reference_solve(M, df, blocks, drop, rhs, what):
    """The system from polynomial products, solved by the dense one-pass
    Hermite reference: neither the builder nor the memo under test."""
    z = _int_solve_reference(_reference_system(M, df, blocks)[drop:], rhs)
    if z is None:
        raise TheoremViolation(f"no integer {what}")
    return z


def _scan_first_vanishing(f, M, budget=counting.DEFAULT_BUDGET):
    """sphere_vanishing_decompose in its scan-first order: enumerate V_p(M)
    and scan every fiber of f, then solve."""
    p = M.p
    df = f.degree()
    if df >= p:
        raise ValueRangeError("needs deg(f) < p")
    if M.p_rank() < 3:
        raise RankHypothesisFailed("needs p-rank >= 3")
    witness = _first_noninteger_fiber(f, M.sphere_points(budget), p)
    if witness is not None:
        raise NotSphereIntegral(witness)
    if df < 0:
        return 1, [RatMultiPoly.zero(f.nvars)]
    t = df // 2
    nums, nums_den = f._binomial_numerators()
    q0, rhs = _scaled_rhs_reference(f, _binom_basis_indices(f.nvars, df), p, t)
    if rhs is None:
        raise TheoremViolation("p-adic depth of f exceeds floor(deg f / 2); no decomposition exists")
    blocks = [(i, t - i, _binom_basis_indices(f.nvars, df - 2 * i)) for i in range(t + 1)]
    z = _reference_solve(M, df, blocks, 0, rhs, "sphere-vanishing decomposition")
    rs = list(division._block_polys(f.nvars, blocks, z).values())
    m_rat = M.as_ratpoly()
    vals, _ = division._simplex_grid_sum(
        f.nvars, [(q0, [f])] + [(-1, [m_rat] * i + [r]) for i, r in enumerate(rs)]
    )
    if (vals != 0).any():
        raise TheoremViolation("sphere-vanishing decomposition failed to re-verify")
    if any(n * p**t % nums_den for n in nums.values()):
        raise TheoremViolation("second clause p^{floor(deg/2)} f failed")
    return q0, rs


def _scan_first_periodic(f, M, budget=counting.DEFAULT_BUDGET):
    """sphere_periodic_decompose in its scan-first order."""
    p = M.p
    df = f.degree()
    if df >= p:
        raise ValueRangeError("needs deg(f) < p")
    if M.p_rank() < 3:
        raise RankHypothesisFailed("needs p-rank >= 3")
    witness = _first_noninteger_fiber(f, M.sphere_points(budget), p, skip_constant=True)
    if witness is not None:
        raise NotPartiallyPeriodic(witness)
    nvars = f.nvars
    t = df // 2
    s_star = max(1, t)
    eq_indices = _binom_basis_indices(nvars, df)[1:]
    q0, rhs = _scaled_rhs_reference(f, eq_indices, p, s_star)
    if rhs is None:
        raise TheoremViolation("p-adic depth exceeds the periodic decomposition shape")
    blocks = [(0, s_star - 1, eq_indices)] + [
        (i, s_star - i, _binom_basis_indices(nvars, df - 2 * i)) for i in range(2, t + 1)
    ]
    z = _reference_solve(M, df, blocks, 1, rhs, "periodic decomposition")
    rs = division._block_polys(nvars, blocks, z)
    r0 = rs.pop(0)
    m_rat = M.as_ratpoly()
    vals, vals_den = division._simplex_grid_sum(
        nvars, [(q0, [f]), (Fraction(-1, p), [r0])] + [(-1, [m_rat] * i + [r]) for i, r in rs.items()]
    )
    if (vals != vals[0]).any():
        raise TheoremViolation("periodic decomposition failed to re-verify")
    c_value = Fraction(int(vals[0]), vals_den)
    den = c_value.denominator
    if den % p == 0 and (den // p) % p != 0:
        k = c_value.numerator * pow(den // p, -1, p) % p
        c_value -= Fraction(k, p)
        r0 = r0 + RatMultiPoly.constant(nvars, k)
    whole = c_value.numerator // c_value.denominator
    if whole:
        c_value -= whole
        r0 = r0 + RatMultiPoly.constant(nvars, p * whole)
    return q0, c_value, r0, rs


def _outcome(solver, f, M):
    try:
        return solver(f, M)
    except SpherefpError as exc:
        return exc


def _forward(M, r):
    mz = M.as_ratpoly()
    d = M.d
    return random_int_valued(d, 4, r) + mz * random_int_valued(d, 2, r) + mz * mz * random_int_valued(d, 0, r)


def _lucas_part(d, p, r):
    """sum_k a_k C(n, idx_k) / p with |idx_k| <= 4: by Lucas, non-integral
    on the fiber of every n0 with sum_k a_k C(n0, idx_k) != 0 mod p."""
    coeffs = {}
    for _ in range(r.randint(1, 3)):
        idx = [0] * d
        for _ in range(r.randint(1, 4)):
            idx[r.randrange(d)] += 1
        coeffs[tuple(idx)] = Fraction(r.randrange(1, p), p)
    return RatMultiPoly.from_binomial(d, coeffs)


def _draw_instance(kind, M, r):
    p, d = M.p, M.d
    if kind == "forward":
        return _forward(M, r) + RatMultiPoly.constant(d, Fraction(r.randint(0, 9), r.choice((1, 3, 7))))
    if kind == "lucas":
        return random_int_valued(d, 4, r) + _lucas_part(d, p, r)
    if kind == "deep_linear":
        lin = {tuple(int(i == j) for i in range(d)): Fraction(r.randrange(1, p), p * p) for j in range(d)}
        return RatMultiPoly(d, lin) + random_int_valued(d, 4, r).scale(Fraction(1, p)) + random_int_valued(d, 3, r)
    if kind == "p_free":
        # a denominator coprime to p gives Q0 != 1
        return _forward(M, r) + random_int_valued(d, 3, r).scale(Fraction(1, r.choice((2, 3))))
    # depth violation g / p^(t+1), t = deg g // 2
    g = random_int_valued(d, 4, r)
    return g.scale(Fraction(1, p ** (max(g.degree(), 0) // 2 + 1)))


def _random_zp_form(d, r):
    if r.random() < 0.5:
        return ZpQuadForm.sphere(5, d, r.randrange(5))
    while True:
        A = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                A[i][j] = A[j][i] = r.randrange(-4, 5)
        M = ZpQuadForm(5, A, [r.randrange(5) for _ in range(d)], r.randrange(5))
        if M.p_rank() >= 3:
            return M


def _assert_same_outcome(new, ref):
    if isinstance(ref, SpherefpError):
        assert type(new) is type(ref), (new, ref)
        assert str(new) == str(ref)
        assert getattr(new, "witness", None) == getattr(ref, "witness", None)
        if hasattr(ref, "witness"):
            n0, idx = new.witness
            assert all(type(x) is int for x in n0 + idx), new.witness
    else:
        assert new == ref


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 4]),
    st.sampled_from(["forward", "lucas", "deep_linear", "p_free", "depth"]),
)
def test_certificate_first_matches_scan_first_order(seed, d, kind):
    r = random.Random(seed)
    M = _random_zp_form(d, r)
    f = _draw_instance(kind, M, r)
    for new, ref in (
        (sphere_vanishing_decompose, _scan_first_vanishing),
        (sphere_periodic_decompose, _scan_first_periodic),
    ):
        _assert_same_outcome(_outcome(new, f, M), _outcome(ref, f, M))


def test_forward_certificates_enumerate_nothing(monkeypatch, rng):
    # q0 = 1 forward instances, drawn as the benchmark draws them at d = 4:
    # the certificate proves the hypothesis, so V_p(M) is never scanned
    def never(*args, **kwargs):
        raise AssertionError("V_p(M) scanned on the certificate path")

    Mz = ZpQuadForm.sphere(5, 4, 1)
    monkeypatch.setattr(division, "_first_noninteger_fiber", never)
    monkeypatch.setattr(division, "enumerate_zeros", never)
    for _ in range(10):
        f = _forward(Mz, rng)
        q0, rs = sphere_vanishing_decompose(f, Mz)
        assert q0 == 1
        c = RatMultiPoly.constant(4, Fraction(rng.randint(0, 9), rng.choice((1, 3, 7))))
        q0, c_value, r0, rs = sphere_periodic_decompose(c + f, Mz)
        assert q0 == 1


def test_p_free_denominators_scan_before_solving(monkeypatch, rng):
    # with q0 != 1 the certificate path is closed: the witness comes from
    # the scan, with no integer system built or solved first
    def never(*args, **kwargs):
        raise AssertionError("the system was built or solved before the scan")

    Mz = ZpQuadForm.sphere(5, 4, 1)
    f = _forward(Mz, rng) + RatMultiPoly.variable(4, 0).scale(Fraction(1, 3))
    monkeypatch.setattr(division, "_system_matrix", never)
    monkeypatch.setattr(division, "int_solve", never)
    with pytest.raises(NotSphereIntegral):
        sphere_vanishing_decompose(f, Mz)
    with pytest.raises(NotPartiallyPeriodic):
        sphere_periodic_decompose(f, Mz)


@pytest.mark.parametrize("seed", range(6))
def test_l_part_witness_is_the_first_base_point(seed):
    # a prime l != p in a non-constant binomial denominator fails the fiber
    # of every base point (n0 + pZ^d is dense in Z_l^d), so both solvers
    # raise at the first point of V_p(M) and Q0 = 1 always suffices
    r = random.Random(seed)
    M = _random_zp_form(r.choice((3, 4)), r)
    x = RatMultiPoly.variable(M.d, r.randrange(M.d))
    l = r.choice((2, 3, 7))
    f = _forward(M, r) + x.scale(Fraction(r.randrange(1, l), l))
    first = tuple(int(v) for v in M.sphere_points()[0])
    for solver, error in (
        (sphere_vanishing_decompose, NotSphereIntegral),
        (sphere_periodic_decompose, NotPartiallyPeriodic),
    ):
        with pytest.raises(error) as err:
            solver(f, M)
        assert err.value.witness[0] == first
    # an l-part in the constant coordinate alone is C's: still Q0 = 1
    f = _forward(M, r) + RatMultiPoly.constant(M.d, Fraction(1, 3))
    q0, c_value, r0, rs = sphere_periodic_decompose(f, M)
    assert q0 == 1 and c_value.denominator == 3


def test_certificates_above_the_enumeration_budget(rng):
    # at p = 5, d = 15 the sphere has 5^15 > DEFAULT_BUDGET base candidates:
    # a forward f is certified without enumerating.  An adversarial one
    # needs the witness scan, which tries the fiber at the first point of
    # V_p(M), (0, .., 0, 1), before it enumerates: x0/25 fails there (the
    # fiber's m_0 / 5), so its witness answers, while x0/5 leaves that fiber
    # integral and still exceeds the budget
    Mz = ZpQuadForm.sphere(5, 15, 1)
    mz = Mz.as_ratpoly()
    x0, x1 = RatMultiPoly.variable(15, 0), RatMultiPoly.variable(15, 1)
    f = random_int_valued(15, 2, rng) + mz.scale(3) + x0 * x1
    q0, rs = sphere_vanishing_decompose(f, Mz)
    assert q0 == 1 and len(rs) == 2
    q0, c_value, r0, rs = sphere_periodic_decompose(f + RatMultiPoly.constant(15, Fraction(1, 3)), Mz)
    assert q0 == 1 and c_value == Fraction(1, 3)
    with pytest.raises(BudgetExceeded, match=rf"^enumeration of size {5**15} exceeds budget {DEFAULT_BUDGET}$"):
        sphere_vanishing_decompose(f + x0.scale(Fraction(1, 5)), Mz)
    with pytest.raises(NotPartiallyPeriodic) as err:
        sphere_periodic_decompose(f + x0.scale(Fraction(1, 25)), Mz)
    assert err.value.witness == ((0,) * 14 + (1,), (1,) + (0,) * 14)
