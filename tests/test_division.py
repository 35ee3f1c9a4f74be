import random
from fractions import Fraction

import pytest

from spherefp.counting import enumerate_zeros, gowers_set
from spherefp import division
from spherefp.division import (
    DivisionCert,
    HypothesisFailed,
    NoSolution,
    NotPartiallyPeriodic,
    NotSphereIntegral,
    PivotZero,
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
    standard_division,
    _cube_difference,
)
from spherefp.ffcore import FpMatrix, PrimeField, rank as mat_rank
from spherefp.fpoly import (
    FpMultiPoly,
    RatMultiPoly,
    _binom_basis_indices,
    _fiber_coefficient_table,
    induce,
    partial_periodicity_witness,
    regular_lift,
)
from spherefp.quadform import QuadForm, TheoremViolation

from conftest import random_form, random_fp_poly, random_int_valued, random_rat_poly


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
    M = QuadForm.dot_form(f5, 2)
    factor = FpMultiPoly(5, 2, {(1, 0): 1, (0, 0): 1})
    cert = standard_division(M.as_poly() * factor, M)
    assert cert.remainder_is_zero() and cert.quotient == factor

    cert2 = standard_division(FpMultiPoly(5, 2, {(1, 0): 1}), M)
    assert cert2.quotient.is_zero()
    assert cert2.r1 == FpMultiPoly.constant(5, 2, 1) and cert2.r0.is_zero()

    cert3 = standard_division(FpMultiPoly(5, 2, {(3, 0): 1}), M)
    assert cert3.verify()


def test_standard_division_pivot_gate(f5):
    M = QuadForm(f5, [[0, 1], [1, 0]])
    with pytest.raises(PivotZero):
        standard_division(FpMultiPoly(5, 2, {(1, 0): 1}), M)


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
                tuples = gowers_set(M, 1)[:200]
            for (n, h) in tuples:
                assert (g.evaluate([(n[i] + h[i]) % 5 for i in range(5)]) - g.evaluate(list(n))) % 5 == (
                    (g2.evaluate([(n[i] + h[i]) % 5 for i in range(5)]) - g2.evaluate(list(n))) % 5
                )


def test_gowers_equation_forward_and_adversarial(f5, rng):
    M = QuadForm.dot_form(f5, 4, radius=1)
    mp = M.as_poly()
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
    with pytest.raises(BudgetExceeded):
        gowers_equation_solve(P, Q, M, 2, budget=10**6)


# -- the Newton-difference kernel against the Fraction basis-change paths -------


def _fiber_table_reference(f, base_points, p):
    """Fiber coordinates through fiber_map and binomial_coeffs, row per point."""
    grid = _binom_basis_indices(f.nvars, max(f.degree(), 0))
    rows = []
    for n0 in base_points:
        coords = f.fiber_map(list(n0), p).binomial_coeffs()
        assert set(coords) <= set(grid)
        rows.append([coords.get(idx, Fraction(0)) for idx in grid])
    return rows


@pytest.mark.parametrize("p", [5, 7])
def test_fiber_table_matches_fiber_map(p, rng):
    for d in range(1, 5):
        for deg in range(5):
            top = tuple([deg] + [0] * (d - 1))
            f = random_rat_poly(d, deg, rng, denominators=(1, 3, p, p * p))
            f = f + RatMultiPoly(d, {top: Fraction(rng.randint(1, 9), p)})
            base_points = sorted({tuple(rng.randrange(p) for _ in range(d)) for _ in range(4)})
            big = f.scale(10**30)  # past the int64 bound: Python integers
            for g in (f, big, RatMultiPoly.zero(d), RatMultiPoly.constant(d, Fraction(-4, 3))):
                for pts in (base_points, base_points[:1]):
                    grid, numerators, den = _fiber_coefficient_table(g, pts, p)
                    assert (numerators.dtype == object) == (g is big)
                    assert grid == _binom_basis_indices(d, max(g.degree(), 0))
                    assert numerators.shape == (len(pts), len(grid))
                    table = [[Fraction(x, den) for x in row] for row in numerators.tolist()]
                    assert table == _fiber_table_reference(g, pts, p)


def test_partial_periodicity_witness_matches_fiber_scan(rng):
    p, d = 5, 3
    omega = ZpQuadForm.sphere(p, d, 1).sphere_points()
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
    return [list(row) for row in zip(*cols)]


def test_decomposition_systems_match_polynomial_columns(monkeypatch, rng):
    seen = []
    real = division.int_solve
    monkeypatch.setattr(division, "int_solve", lambda a, b: seen.append(a) or real(a, b))
    A = [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]
    for M in (ZpQuadForm.sphere(5, 3, 1), ZpQuadForm(5, A, [1, 0, 2, 0], 3)):
        d, p = M.d, M.p
        for df in range(5):
            # random_int_valued draws coefficients in -9..9, so f has degree df
            top = RatMultiPoly.from_binomial(d, {tuple([df] + [0] * (d - 1)): 10})
            f = random_int_valued(d, df, rng) + top
            t, s_star = df // 2, max(1, df // 2)
            grids = [_binom_basis_indices(d, df - 2 * i) for i in range(t + 1)]
            seen.clear()
            sphere_vanishing_decompose(f, M)
            slots = [(i, idx, t - i) for i in range(t + 1) for idx in grids[i]]
            assert seen[0] == _reference_columns(M, df, slots)
            seen.clear()
            sphere_periodic_decompose(f, M)
            slots = [(0, idx, s_star - 1) for idx in grids[0][1:]]
            slots += [(i, idx, s_star - i) for i in range(2, t + 1) for idx in grids[i]]
            assert seen[0] == _reference_columns(M, df, slots)[1:]
