import hashlib
import json
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp.counting import all_points, gowers_set
from spherefp.ffcore import BudgetExceeded, FpMatrix, HypothesisNotMet, MalformedInput, PrimeField, rank
from spherefp import fpoly, msets, quadform
from spherefp.fpoly import FpMultiPoly, _binom_basis_indices
from spherefp.msets import (
    MQuadFn,
    NotConsistent,
    classify,
    enumerate_mset,
    family_from_json,
    family_to_json,
    fubini_check,
    fubini_prepare,
    gowers_family,
    i_projection,
    ideal_membership,
    irreducibility_probe,
    mset_cardinality_check,
    restrict_blocks,
    sample_mset,
    standard_rep,
)
from spherefp.quadform import QuadForm

from conftest import random_form, random_fp_poly
from test_fpoly import _eval_reference


def sphere_family(M):
    return [MQuadFn(M, 1, {(1, 1): 1}, [M.u[:]], M.v)]


def test_coeff_vectors_examples(f5):
    M = QuadForm.dot_form(f5, 3)
    const = MQuadFn(M, 2, None, None, 4)
    vm, vpm = const.coeff_vectors()
    assert vm == [0] * (3 + 2 * 3) + [4]
    assert vpm == [0] * (3 + 2 * 3)

    pure11 = MQuadFn(M, 2, {(1, 1): 1})
    vm, _ = pure11.coeff_vectors()
    # slot layout: b22 b21 v2 | b11 b21... the b11 slot sits after block 2
    assert vm[0] == 0 and vm[2 + 3] == 1


def test_coeff_vector_roundtrip_and_slots(f5, rng):
    M = random_form(f5, 3, rng, min_rank=1)
    for _ in range(30):
        k = rng.randint(1, 3)
        b = {}
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                if rng.random() < 0.5:
                    b[(i, j)] = rng.randrange(5)
        v = [[rng.randrange(5) for _ in range(3)] for _ in range(k)]
        F = MQuadFn(M, k, b, v, rng.randrange(5))
        vm, vpm = F.coeff_vectors()
        assert len(vm) == (k * (k + 1)) // 2 + k * 3 + 1
        assert vpm == vm[:-1]
        G = MQuadFn.from_coeff_vector(M, k, vm)
        assert G.b == F.b and G.v == F.v and G.u == F.u
        # the coefficient vector pins the polynomial itself
        assert G.as_poly() == F.as_poly()


def test_classify_examples(f5):
    M = QuadForm.dot_form(f5, 3)
    assert not classify([MQuadFn(M, 1, None, None, 1)], M, 1)["consistent"]
    two = [MQuadFn(M, 2, {(1, 1): 1}), MQuadFn(M, 2, {(1, 2): 1})]
    flags = classify(two, M, 2)
    assert flags["independent"] and flags["consistent"] and flags["pure"]
    g = gowers_family(M, 1)
    flags = classify(g, M, 2)
    assert flags["nice"] is True and flags["independent"]


def _nice_search_per_order(family, M, k):
    """The nice search as it was before its translation system was solved
    once: every block order builds and solves its own system."""
    from itertools import permutations
    from math import factorial

    from spherefp.ffcore import Infeasible, solve_linear

    if all(f.is_nice() for f in family):
        return True
    if factorial(k) > 720:
        return None
    field, p, d = M.field, M.p, M.d
    betas = [f.beta() for f in family]
    for sigma in permutations(range(k)):
        tin = [[1 if sigma[t] == s else 0 for s in range(k)] for t in range(k)]
        if any(len({j for _, j in f.transformed(tin).b}) > 1 for f in family):
            continue
        rows = []
        rhs = []
        for f, beta in zip(family, betas):
            for s in range(k):
                for t in range(d):
                    row = [0] * (k * d)
                    for j in range(k):
                        bij = beta[sigma[s]][j]
                        if bij:
                            for tt in range(d):
                                row[j * d + tt] = (row[j * d + tt] + 2 * bij * M.A.rows[tt][t]) % p
                    rows.append(row)
                    rhs.append(field.neg(f.v[sigma[s]][t]))
        try:
            shift_flat, _ = solve_linear(FpMatrix(field, rows), rhs)
        except Infeasible:
            continue
        shift = [shift_flat[j * d : (j + 1) * d] for j in range(k)]
        if all(f.transformed(tin, shift).is_nice() for f in family):
            return True
    return None


def _disguised_family(r, M, k, linear):
    """1-3 functions, each nice in one hidden block order (a pivot c and
    terms b_ic, i <= c), moved by one random block permutation and, when
    linear, by a random translation; then, one time in two, one function
    gets one more random quadratic (or, when linear, linear) coefficient,
    which often leaves no order that works."""
    p, d = M.p, M.d
    fam = []
    for _ in range(r.randint(1, 3)):
        c = r.randint(1, k)
        b = {(i, c): r.randrange(1, p) for i in range(1, c + 1) if r.random() < 0.6}
        fam.append(MQuadFn(M, k, b, None, r.randrange(p)))
    order = list(range(k))
    r.shuffle(order)
    T = [[1 if order[t] == i else 0 for i in range(k)] for t in range(k)]
    shift = [[r.randrange(p) for _ in range(d)] for _ in range(k)] if linear else None
    fam = [f.transformed(T, shift) for f in fam]
    if r.random() < 0.5:
        f = fam[r.randrange(len(fam))]
        if linear and r.random() < 0.5:
            v = [row[:] for row in f.v]
            v[r.randrange(k)][r.randrange(d)] += r.randrange(1, p)
            fam.append(MQuadFn(M, k, f.b, v, f.u))
        else:
            i = r.randint(1, k)
            b = dict(f.b)
            b[(i, r.randint(i, k))] = r.randrange(1, p)
            fam.append(MQuadFn(M, k, b, f.v, f.u))
        fam.remove(f)
    return fam


def test_nice_search_matches_the_per_order_search():
    # one translation solve before the block orders decides as every order
    # solving its own system did: 240 seeded families with k up to 6, pure
    # and with linear parts, both outcomes drawn
    outcomes = {}
    for seed in range(240):
        r = random.Random(seed)
        p = r.choice([5, 7])
        k = r.randint(2, 6)
        M = random_form(PrimeField(p), r.randint(1, 3), r)
        linear = seed % 2 == 1
        fam = _disguised_family(r, M, k, linear)
        got = msets._nice_search(fam, M, k)
        assert got is _nice_search_per_order(fam, M, k), seed
        outcomes[linear, got] = outcomes.get((linear, got), 0) + 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 4, outcomes


def test_standard_rep_idempotent_and_preserves_zero_set(f5, rng):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    rep = standard_rep(fam, M, 2)
    rep2 = standard_rep(rep.functions, M, 2)
    assert [f.coeff_vectors()[0] for f in rep.functions] == [
        f.coeff_vectors()[0] for f in rep2.functions
    ]
    pts1 = enumerate_mset(fam, M, 2)
    pts2 = enumerate_mset(rep.functions, M, 2)
    assert np.array_equal(pts1, pts2)


def test_standard_rep_redundant_row_drops(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    F1 = MQuadFn(M, 2, {(1, 1): 1}, None, 2)
    F2 = MQuadFn(M, 2, {(1, 2): 2})
    F3 = MQuadFn(M, 2, {(1, 1): 1, (1, 2): 2}, None, 2)  # F1 + F2
    rep = standard_rep([F1, F2, F3], M, 2)
    assert rep.total_codim == 2


def test_standard_rep_rejects_inconsistent(f5):
    M = QuadForm.dot_form(f5, 3)
    with pytest.raises(NotConsistent):
        standard_rep([MQuadFn(M, 1, None, None, 3)], M, 1)


def test_dimension_vectors_of_gowers_families(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    for s in (1, 2, 3):
        rep = standard_rep(gowers_family(M, s), M, s + 1)
        expected = [1, 1] + list(range(2, s + 1))
        assert rep.dimension_vector == expected
        assert rep.total_codim == (s * s + s + 2) // 2


def test_total_codim_examples(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    assert standard_rep([], M, 1).total_codim == 0
    assert standard_rep(sphere_family(M), M, 1).total_codim == 1
    assert standard_rep(gowers_family(M, 2), M, 3).total_codim == 4


def test_gowers_family_cuts_box(f5):
    for d in (3, 4, 5):
        M = QuadForm.dot_form(PrimeField(5), d, radius=1)
        fam = gowers_family(M, 1)
        assert len(enumerate_mset(fam, M, 2)) == gowers_set(M, 1)


def test_family_structural_closure(f5, rng):
    # sub-families, variable dropping, block-linear changes and duplication
    # preserve consistency/independence
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 2)
    k = 3
    flags = classify(fam, M, k)
    assert flags["consistent"] and flags["independent"]
    # (i) sub-family
    sub = fam[:3]
    fs = classify(sub, M, k)
    assert fs["consistent"] and fs["independent"]
    # (ii) dropping the unused last block from functions independent of it
    narrow = [f for f in fam if f.max_block() <= 2]
    dropped = [restrict_blocks(f, M, [1, 2]) for f in narrow]
    fd = classify(dropped, M, 2)
    assert fd["consistent"] and fd["independent"]
    # (iii) block-linear change of variables plus shift
    T = [[1, 0, 0], [2, 1, 0], [1, 0, 1]]  # unipotent, invertible
    shift = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
    moved = [f.transformed(T, shift) for f in fam]
    fm = classify(moved, M, k)
    assert fm["consistent"] and fm["independent"]
    # transformed functions agree pointwise with composition
    pts = [tuple(rng.randrange(5) for _ in range(9)) for _ in range(20)]
    for f, g in zip(fam, moved):
        for flat in pts:
            blocks = [flat[0:3], flat[3:6], flat[6:9]]
            image = []
            for i in range(3):
                img = [
                    (sum(blocks[t][c] * T[t][i] for t in range(3)) + shift[i][c]) % 5
                    for c in range(3)
                ]
                image.append(tuple(img))
            assert g.evaluate(blocks) == f.evaluate(image)
    # (iv) duplication across fresh blocks
    base = [MQuadFn(M, 2, {(1, 1): 1}, None, 4), MQuadFn(M, 2, {(1, 2): 1})]
    dup = [
        MQuadFn(M, 3, {(1, 1): 1}, None, 4),
        MQuadFn(M, 3, {(1, 2): 1}),
        MQuadFn(M, 3, {(1, 3): 1}),
    ]
    fdup = classify(dup, M, 3)
    assert fdup["consistent"] and fdup["independent"]


def test_representation_dimension_well_defined(f5):
    # two representations of the same set through different pivot orders
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 2)
    rep1 = standard_rep(fam, M, 3)
    rep2 = standard_rep(list(reversed(fam)), M, 3)
    assert rep1.total_codim == rep2.total_codim
    assert rep1.dimension_vector == rep2.dimension_vector


def test_i_projection_box(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 2)
    proj, rest = i_projection(fam, M, 3, {1, 2})
    got = enumerate_mset([restrict_blocks(g, M, [1, 2]) for g in proj], M, 2)
    assert len(got) == gowers_set(M, 1)
    # every remaining generator depends on block 3
    for g in rest:
        assert g.max_block() == 3
    # full projection and empty projection
    proj, rest = i_projection(fam, M, 3, {1, 2, 3})
    assert len(rest) == 0
    single = [MQuadFn(M, 1, {(1, 1): 1}, None, 1)]
    proj, rest = i_projection(single, M, 1, set())
    assert proj == [] and len(rest) == 1


def test_i_projection_zero_set_unique(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 2)
    a, _ = i_projection(fam, M, 3, {1, 2})
    b, _ = i_projection(list(reversed(fam)), M, 3, {1, 2})
    pa = enumerate_mset([restrict_blocks(g, M, [1, 2]) for g in a], M, 2)
    pb = enumerate_mset([restrict_blocks(g, M, [1, 2]) for g in b], M, 2)
    assert np.array_equal(pa, pb)


def test_cardinality_check(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    rep = mset_cardinality_check(sphere_family(M), M, 1)
    assert rep.exact == 30 and rep.main_term == 25 and rep.passed
    # empty family: exactly p^{dk}
    rep = mset_cardinality_check([], M, 1)
    assert rep.exact == 125 and rep.main_term == 125
    # Box_1 shape at d = 5: exact 5^8-scale count against 5^{10-2}
    M5 = QuadForm.dot_form(f5, 5, radius=1)
    rep = mset_cardinality_check(gowers_family(M5, 1), M5, 2)
    assert rep.main_term == 5**8 and rep.passed


def test_fubini_equal_weight_and_pm1(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    lhs, rhs, diff = fubini_check(fam, M, 2, 1, lambda x: 1)
    assert lhs == 1 and rhs == 1 and diff == 0
    rng = random.Random(31)
    table = {}

    def f(x):
        if x not in table:
            table[x] = rng.choice((-1, 1))
        return table[x]

    lhs, rhs, diff = fubini_check(fam, M, 2, 1, f)
    assert float(diff) <= 4 * 5**-0.5


def test_fubini_kprime_ends_are_exact_and_outside_is_refused(f5, monkeypatch):
    # I = {} and I = {1..k} both make each side the plain mean over Omega;
    # a kprime outside 0..k names no block set and is refused before any
    # enumeration
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    for kprime in (0, 2):
        lhs, rhs, diff = fubini_check(fam, M, 2, kprime, lambda x: x[0] + 2 * x[4])
        assert lhs == rhs and diff == 0

    def never(*args):
        raise AssertionError("enumerated before kprime was checked")

    monkeypatch.setattr(msets, "enumerate_mset", never)
    for kprime in (-1, 3):
        with pytest.raises(MalformedInput, match="kprime must lie in 0..k = 2"):
            fubini_check(fam, M, 2, kprime, lambda x: 1)


def test_fubini_uneven_fibers(f5):
    # order the Box_1 blocks as (h, n): fibers over h are V(M)^h with
    # genuinely varying sizes, so the identity carries an error term
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = [
        MQuadFn(M, 2, {(2, 2): 1}, None, M.v),  # M(n), n now the second block
        MQuadFn(M, 2, {(1, 2): 2, (1, 1): 1}),  # M(n + h) - M(n)
    ]
    rng = random.Random(32)
    table = {}

    def f(x):
        if x not in table:
            table[x] = rng.choice((-1, 1))
        return table[x]

    lhs, rhs, diff = fubini_check(fam, M, 2, 1, f)
    assert float(diff) <= 4 * 5**-0.5
    lhs, rhs, diff = fubini_check(fam, M, 2, 1, lambda x: 1)
    assert diff == 0


def test_ideal_membership(f5, rng):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    fpolys = [f.as_poly() for f in fam]
    qs = [random_fp_poly(5, 6, 1, rng) for _ in fam]
    P = FpMultiPoly.zero(5, 6)
    for fp, q in zip(fpolys, qs):
        P = P + fp * q
    out = ideal_membership(P, fam, M, 2)
    assert out is not None
    rebuilt = FpMultiPoly.zero(5, 6)
    for fp, q in zip(fpolys, out):
        rebuilt = rebuilt + fp * q
    assert rebuilt == P
    assert ideal_membership(FpMultiPoly.constant(5, 6, 1), fam, M, 2) is None


def _ideal_membership_reference(P, family, M, k):
    """ideal_membership as it was before its system was cached: the whole
    (monomials x columns) system built and solved for every P."""
    from spherefp.ffcore import Infeasible, solve_linear
    from spherefp.fpoly import _binom_basis_indices as monomials_up_to

    p = M.p
    nvars = k * M.d
    sq = max(P.degree() - 2, 0)
    fpolys = [f.as_poly() for f in family]
    monoms = monomials_up_to(nvars, sq)
    cols = []
    for fp in fpolys:
        for e in monoms:
            cols.append(fp * FpMultiPoly(p, nvars, {e: 1}))
    eq_monoms = monomials_up_to(nvars, P.degree())
    eq_index = {e: t for t, e in enumerate(eq_monoms)}
    rows = [[0] * len(cols) for _ in eq_monoms]
    for c, poly in enumerate(cols):
        for e, coef in poly.terms.items():
            if e not in eq_index:
                return None
            rows[eq_index[e]][c] = coef
    rhs = [0] * len(eq_monoms)
    for e, coef in P.terms.items():
        rhs[eq_index[e]] = coef
    try:
        sol, _ = solve_linear(FpMatrix(M.field, rows), rhs)
    except Infeasible:
        return None
    per = len(monoms)
    qs = [
        FpMultiPoly(p, nvars, dict(zip(monoms, sol[j * per : (j + 1) * per])))
        for j in range(len(fpolys))
    ]
    check = FpMultiPoly.zero(p, nvars)
    for fp, q in zip(fpolys, qs):
        check = check + fp * q
    if check != P:
        return None
    return qs


def _qs_bytes(qs):
    return None if qs is None else json.dumps([q.to_json() for q in qs])


def _membership_cases(r, family, k, p, nvars):
    """(kind, P): members (sums F_j Q_j, deg Q_j <= 1), a member plus one
    monomial, a dense cubic, and polynomials of degree < 2, whose system
    has a column monomial outside its rows."""
    fpolys = [f.as_poly() for f in family]
    for deg in (1, 0):
        P = FpMultiPoly.zero(p, nvars)
        for fp in fpolys:
            P = P + fp * random_fp_poly(p, nvars, deg, r, 4)
        yield "member", P
        yield "plus a monomial", P + FpMultiPoly(p, nvars, {tuple(r.randrange(2) for _ in range(nvars)): 1})
    yield "dense cubic", msets._random_poly(p, nvars, 3, r)
    yield "low", FpMultiPoly.constant(p, nvars, 1 + r.randrange(p - 1))
    yield "low", FpMultiPoly(p, nvars, {(1,) + (0,) * (nvars - 1): 1})
    yield "low", FpMultiPoly.zero(p, nvars)


@pytest.mark.parametrize("p", [5, 7])
def test_cached_ideal_membership_matches_uncached_reference(p):
    # the same Q_j, byte for byte, for members, non-members and
    # polynomials whose system has a monomial outside its rows
    r = random.Random(p)
    M = QuadForm.dot_form(PrimeField(p), 3, radius=1)
    N = random_form(PrimeField(p), 2, r, min_rank=1)
    families = [(gowers_family(M, 1), M, 2), (sphere_family(M), M, 1)]
    families.append(([_random_cross_fn(r, N, 2), _random_cross_fn(r, N, 2)], N, 2))
    certified = {}
    for family, form, k in families:
        for kind, P in _membership_cases(r, family, k, p, k * form.d):
            got = ideal_membership(P, family, form, k)
            assert _qs_bytes(got) == _qs_bytes(_ideal_membership_reference(P, family, form, k))
            certified.setdefault(kind, []).append(got is not None)
    assert sum(certified["member"]) >= 5 and not any(certified["low"])


def test_ideal_membership_system_is_keyed_by_value():
    # two families equal in value, on distinct objects (forms included),
    # share one reduced system; one coefficient apart, they have two
    msets._membership_system.cache_clear()
    M1 = QuadForm.dot_form(PrimeField(5), 3, radius=1)
    M2 = QuadForm.dot_form(PrimeField(5), 3, radius=1)
    fam1, fam2 = gowers_family(M1, 1), gowers_family(M2, 1)
    r = random.Random(3)
    P = FpMultiPoly.zero(5, 6)
    for fp in (f.as_poly() for f in fam1):
        P = P + fp * random_fp_poly(5, 6, 1, r, 4)
    first = ideal_membership(P, fam1, M1, 2)
    assert first is not None
    assert _qs_bytes(ideal_membership(P, fam2, M2, 2)) == _qs_bytes(first)
    info = msets._membership_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    fam3 = gowers_family(M2, 1)
    fam3[0] = MQuadFn(M2, 2, {(1, 1): 1}, [[0, 0, 1], [0, 0, 0]], M2.v)
    got = ideal_membership(P, fam3, M2, 2)
    assert _qs_bytes(got) == _qs_bytes(_ideal_membership_reference(P, fam3, M2, 2))
    info = msets._membership_system.cache_info()
    assert (info.currsize, info.misses) == (2, 2)


def test_sample_mset_hits_the_set(f5, rng):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    pts = sample_mset(fam, M, 2, rng, 64)
    assert len(pts) == 64
    for f in fam:
        assert (f.eval_array(pts) == 0).all()


def test_probe_exact_mode(rng):
    # p = 7, d = 4: inside the regime where dense random cubics stay well
    # below delta = 0.3 (p = 5 genuinely produces middle grounds, matching
    # the theorem's requirement p >> delta^{-O(1)})
    f7 = PrimeField(7)
    M = QuadForm.dot_form(f7, 4, radius=1)
    verdicts = irreducibility_probe(sphere_family(M), M, 1, 2, 0.3, 20, rng)
    assert all(v["verdict"] != "middle_ground" for v in verdicts)
    kinds = {v["verdict"] for v in verdicts}
    assert "small" in kinds and "contained" in kinds


def _probe_reference(family, M, k, s, delta, trials, rng, budget, samples):
    """irreducibility_probe one polynomial at a time: draw it, evaluate it
    term by term on the point set, judge it, then draw the next."""
    p, d = M.p, M.d
    nvars = k * d
    exact_mode = p ** (d * k) <= budget
    if exact_mode:
        pts = enumerate_mset(family, M, k, budget)
    else:
        pts = sample_mset(family, M, k, rng, samples)
    fpolys = [f.as_poly() for f in family]
    verdicts = []
    for t in range(trials):
        if t % 10 == 8:
            qs = [msets._random_poly(p, nvars, max(s - 2, 0), rng, 4) for _ in family]
            P = FpMultiPoly.zero(p, nvars)
            for fp, q in zip(fpolys, qs):
                P = P + fp * q
            if P.is_zero():
                P = fpolys[0]
        elif t % 10 == 9:
            P = FpMultiPoly.constant(p, nvars, rng.randrange(1, p))
        else:
            P = msets._random_poly(p, nvars, s, rng)
        verdicts.append(msets._probe_one(P, _eval_reference(P, pts), family, M, k, delta, exact_mode))
    return verdicts


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_probe_verdicts_match_one_at_a_time_reference(mode):
    # the batched evaluation neither changes a verdict nor draws from rng
    if mode == "exact":
        M = QuadForm.dot_form(PrimeField(7), 4, radius=1)
        args = (sphere_family(M), M, 1, 3, 0.3, 30)
        extra = {"budget": 10**6, "samples": 1200}
    else:
        M = QuadForm.dot_form(PrimeField(5), 3, radius=1)
        args = (gowers_family(M, 1), M, 2, 3, 0.3, 30)
        extra = {"budget": 5**5, "samples": 400}
    rng, ref_rng = random.Random(77), random.Random(77)
    verdicts = irreducibility_probe(*args, rng, **extra)
    assert {v["mode"] for v in verdicts} == {mode}
    assert verdicts == _probe_reference(*args, ref_rng, **extra)
    assert rng.getstate() == ref_rng.getstate()


def test_probe_translation_product_isomorphism_invariance(f5, rng):
    # invariance spot checks via exact count identities: translating or
    # linearly transforming the
    # set matches composing the test polynomial the other way, and products
    # multiply counts for split polynomials.
    M = QuadForm.dot_form(f5, 3, radius=1)
    pts = enumerate_mset(sphere_family(M), M, 1)
    v = [1, 2, 0]
    shifted_pts = (pts + np.array(v)) % 5
    L = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]  # invertible over F_5
    mapped_pts = (pts @ np.array(L)) % 5
    for _ in range(15):
        P = random_fp_poly(5, 3, 3, rng)
        on_shifted = int((P.eval_array(shifted_pts) == 0).sum())
        pulled = P.compose_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], v)
        assert on_shifted == int((pulled.eval_array(pts) == 0).sum())
        on_mapped = int((P.eval_array(mapped_pts) == 0).sum())
        composed = P.compose_linear(L)
        assert on_mapped == int((composed.eval_array(pts) == 0).sum())
    # product: two spheres in separate blocks; a polynomial of the first
    # block alone meets the product in |V(P) cap Omega_1| * |Omega_2| points
    fam_prod = [MQuadFn(M, 2, {(1, 1): 1}, None, M.v), MQuadFn(M, 2, {(2, 2): 1}, None, M.v)]
    prod_pts = enumerate_mset(fam_prod, M, 2)
    assert len(prod_pts) == len(pts) ** 2
    P1 = random_fp_poly(5, 3, 2, rng)
    wide = P1.substitute([FpMultiPoly.variable(5, 6, j) for j in range(3)])
    count_prod = int((wide.eval_array(prod_pts) == 0).sum())
    count_base = int((P1.eval_array(pts) == 0).sum())
    assert count_prod == count_base * len(pts)


def test_family_json_roundtrip(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 2)
    blob = family_to_json(fam, 3)
    fam2, k = family_from_json(M, blob)
    assert k == 3
    assert [f.coeff_vectors()[0] for f in fam] == [f.coeff_vectors()[0] for f in fam2]


def test_f2z_irreducibility_bridge(f5, rng):
    # F_p-side intersections and Z/p-side intersections match point for
    # point through tau/iota: V_p(regular_lift(P)) cap tau(Omega) =
    # tau(V(P) cap Omega), so the two irreducibility notions transfer
    from spherefp.fpoly import regular_lift

    M = QuadForm.dot_form(f5, 3, radius=1)
    omega = [tuple(int(x) for x in row) for row in enumerate_mset(sphere_family(M), M, 1)]
    for _ in range(20):
        P = random_fp_poly(5, 3, 3, rng)
        lift = regular_lift(P)
        fp_side = {n for n in omega if P.evaluate(list(n)) == 0}
        zp_side = {n for n in omega if lift.evaluate(list(n)).denominator == 1}
        assert fp_side == zp_side


def test_strong_irreducibility_layer(f5, rng):
    # a Z/p^2-valued polynomial vanishing into Z on the whole sphere has
    # its top p-layer vanishing there too (the p-expansion step behind the
    # strong irreducibility proof)
    from fractions import Fraction

    from spherefp.fpoly import RatMultiPoly

    M = QuadForm.dot_form(f5, 3, radius=1)
    omega = [tuple(int(x) for x in row) for row in enumerate_mset(sphere_family(M), M, 1)]
    g1 = random_fp_poly(5, 3, 2, rng)
    from spherefp.fpoly import regular_lift

    lift = regular_lift(g1)
    deep = lift.scale(Fraction(1, 5))  # Z/p^2-valued
    hits = [n for n in omega if deep.evaluate(list(n)).denominator == 1]
    for n in hits:
        assert lift.evaluate(list(n)).denominator == 1


def test_enumerate_mset_against_brute_force(f5, rng):
    # block enumeration through the standard representation agrees with a
    # plain filter over all of (F_p^d)^k, on a non-standard input family
    M = QuadForm(f5, [[1, 0], [0, 2]], [1, 0], 3)
    F1 = MQuadFn(M, 2, {(1, 1): 1, (1, 2): 2}, [[1, 0], [0, 0]], 3)
    F2 = MQuadFn(M, 2, {(1, 2): 2}, [[0, 1], [2, 0]], 1)
    F3 = MQuadFn(M, 2, {(1, 1): 1, (1, 2): 4}, [[1, 1], [2, 0]], 4)  # F1 + F2
    fam = [F1, F2, F3]
    got = {tuple(int(x) for x in row) for row in enumerate_mset(fam, M, 2)}
    brute = set()
    from spherefp.counting import all_points

    for row in all_points(5, 4):
        blocks = [tuple(int(x) for x in row[:2]), tuple(int(x) for x in row[2:])]
        if all(f.evaluate(blocks) == 0 for f in fam):
            brute.add(tuple(int(x) for x in row))
    assert got == brute


def test_cardinality_is_exact_or_refused(f5):
    # no sampled estimate: Box_1 at d = 5 (p^{dk} above the budget) is
    # counted exactly, and a budget it does not fit is refused
    M = QuadForm.dot_form(f5, 5, radius=1)
    fam = gowers_family(M, 1)
    rep = mset_cardinality_check(fam, M, 2, budget=5 * 10**6)
    assert rep.exact == 422500 and rep.main_term == 5**8
    with pytest.raises(BudgetExceeded):
        mset_cardinality_check(fam, M, 2, budget=10)


@pytest.mark.parametrize("chunk_rows", [1, 7, 300])
def test_enumerate_mset_chunked_product_keeps_rows(monkeypatch, f5, chunk_rows):
    # filtering the block product a few partial rows at a time gives the
    # same array, row order included, as filtering it whole
    M = QuadForm.dot_form(f5, 3, radius=1)
    for fam, k in ((gowers_family(M, 1), 2), (gowers_family(M, 2), 3)):
        whole = enumerate_mset(fam, M, k)
        monkeypatch.setattr(msets, "ENUM_CHUNK_ROWS", chunk_rows)
        chunked = enumerate_mset(fam, M, k)
        monkeypatch.undo()
        assert chunked.dtype == whole.dtype and np.array_equal(chunked, whole)
    # n^2 = 2 has no root mod 5: the first block empties, the width stays
    M1 = QuadForm(f5, [[1]], [0], 3)
    monkeypatch.setattr(msets, "ENUM_CHUNK_ROWS", chunk_rows)
    assert enumerate_mset([MQuadFn(M1, 2, {(1, 1): 1}, None, M1.v)], M1, 2).shape == (0, 2)


def test_fubini_check_calls_f_on_int_tuples_in_row_order(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = [MQuadFn(M, 2, {(2, 2): 1}, None, M.v), MQuadFn(M, 2, {(1, 2): 2, (1, 1): 1})]
    prepared = fubini_prepare(fam, M, 2, 1)
    seen = []

    def f(x):
        seen.append(x)
        return 1

    fubini_check(fam, M, 2, 1, f, prepared=prepared)
    assert seen == [tuple(int(x) for x in row) for row in prepared[0]]
    assert all(type(x) is tuple and all(type(c) is int for c in x) for x in seen)


def test_fubini_check_keeps_numpy_integers_exact(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    prepared = fubini_prepare(fam, M, 2, 1)
    want = fubini_check(fam, M, 2, 1, lambda x: x[0] % 2, prepared=prepared)
    got = fubini_check(fam, M, 2, 1, lambda x: np.int64(x[0] % 2), prepared=prepared)
    assert got == want and want[0] == Fraction(13, 30)
    assert all(type(v) is Fraction for v in got)
    # 900 values of 2^62 would wrap an int64 sum
    big = 2**62
    got = fubini_check(fam, M, 2, 1, lambda x: np.int64(big + x[0]), prepared=prepared)
    want = fubini_check(fam, M, 2, 1, lambda x: big + x[0], prepared=prepared)
    assert got == want and want[0] > big
    # numpy integers next to Fractions and ints stay exact as well
    mixed = [np.int32(1), Fraction(1, 3), 2, np.uint8(4)]
    got = fubini_check(fam, M, 2, 1, lambda x: mixed[x[0] % 4], prepared=prepared)
    want = fubini_check(fam, M, 2, 1, lambda x: [1, Fraction(1, 3), 2, 4][x[0] % 4], prepared=prepared)
    assert got == want and type(got[0]) is Fraction


def test_eval_array_reduces_before_scaling():
    # at p = 2097169 a dot product (x_i A) . x_j reaches d p^2 ~ 2^45, and
    # scaling it by b_ij before reducing would pass 2^63
    p = 2097169
    r = random.Random(2097169)
    a = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            a[i][j] = a[j][i] = r.randrange(p)
    M = QuadForm(PrimeField(p), a, [0, 0, 0], 0)
    F = MQuadFn(M, 2, {(1, 1): p - 1, (1, 2): p - 2, (2, 2): p - 3}, [[1, 2, 3], [p - 1, 0, 5]], 5)
    pts = np.array([[r.randrange(p) for _ in range(6)] for _ in range(200)], dtype=np.int64)
    want = [F.evaluate([row[:3], row[3:]]) for row in pts.tolist()]
    assert F.eval_array(pts).tolist() == want


def _kernel_inputs(r, p, n, width):
    """Residues, then negatives, then entries >= p (up to 2^61, so that even
    x is reduced before its product with A), one block of n rows each."""
    big = min(2**61, 50 * p)
    return np.array(
        [[r.randrange(p) for _ in range(width)] for _ in range(n)]
        + [[r.randrange(-big, 1) for _ in range(width)] for _ in range(n)]
        + [[r.randrange(p, big) for _ in range(width)] for _ in range(n)]
        + [[r.choice((2**61, -(2**61))) + r.randrange(p) for _ in range(width)] for _ in range(n)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("p", [5, 11, 2097169])
def test_bilinear_kernel_matches_scalar_evaluate(p):
    # MQuadFn.eval_array, QuadForm.eval_array and enumerate_mset's cross
    # term share quadform.bilinear; every b_ij, cross terms and linear
    # parts are drawn, and each row is checked against scalar evaluate
    from spherefp.quadform import bilinear

    r = random.Random(p)
    for _ in range(6):
        d, k = r.randint(1, 4), r.randint(1, 3)
        M = random_form(PrimeField(p), d, r)
        F = _random_cross_fn(r, M, k)
        pts = _kernel_inputs(r, p, 12, k * d)
        want = [F.evaluate([row[i * d : (i + 1) * d] for i in range(k)]) for row in pts.tolist()]
        assert F.eval_array(pts).tolist() == want
        blocks = pts[:, :d]
        assert M.eval_array(blocks).tolist() == [M.evaluate(row) for row in blocks.tolist()]
        # the outer form (x a) . y for every pair of rows, as enumerate_mset uses it
        a = np.array([[r.randrange(p) for _ in range(d)] for _ in range(k * d)], dtype=np.int64)
        vals = bilinear(pts, a, blocks, p, outer=True)
        assert np.abs(vals).max() < 2**62
        want = [[sum(x * int(a[i, j]) * y[j] for i, x in enumerate(xr) for j in range(d)) % p for y in blocks.tolist()]
                for xr in pts.tolist()]
        assert (vals % p).tolist() == want


def _bilinear_oracle(x, a, y, lin, outer):
    """(x a + lin) . y in Python integers."""
    a = a.tolist()
    lin = [0] * len(a[0]) if lin is None else lin.tolist()
    xa = [[sum(xi * row[j] for xi, row in zip(xr, a)) + lin[j] for j in range(len(lin))] for xr in x.tolist()]
    if outer:
        return [[sum(map(operator.mul, xr, yr)) for yr in y.tolist()] for xr in xa]
    return [sum(map(operator.mul, xr, yr)) for xr, yr in zip(xa, y.tolist())]


def _float_side(x, a, y, p):
    """Whether bilinear's bound puts the row form on its float64 side."""
    n, m = a.shape
    xb, yb = (int(v.view(np.uint64).max()) for v in (x, y))
    return m * (n * xb * (p - 1) + p - 1) * max(yb, 1) < 2**53


@pytest.mark.parametrize("p", [2, 11, 65521, 2**31 - 1])
def test_bilinear_float_branch_equals_int64_branch(p, monkeypatch):
    # each draw runs once as bilinear chooses and once with the float bound
    # at 0, which is the int64 branch; on the float side both give the exact
    # sums, past it (and in the outer form) both are the int64 branch and
    # stay congruent below 2^62, exact where the bound needs no reduction.
    # Entries run from residues to >= p (small ones stay on the float side)
    # to negatives and +-2^61, which only the int64 branch takes
    r = random.Random(p)
    sides = []
    for t in range(24):
        # past p ~ 2^31 the int64 branch refuses two reduced entries in a sum
        n, m = (r.randint(1, 8), r.randint(1, 8)) if p < 2**30 else (1, 1)
        a = np.array([[r.randrange(p) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        lin = np.array([r.randrange(p) for _ in range(m)], dtype=np.int64)
        lo, hi = [(0, 2), (0, p), (p, 64 * p), (0, 2**20), (-(2**10), 2**10), (-(2**61), 2**61)][t % 6]
        x = np.array([[r.randrange(lo, hi) for _ in range(n)] for _ in range(9)], dtype=np.int64)
        for outer, rows in ((False, 9), (True, 5)):
            y = np.array([[r.randrange(lo, hi) for _ in range(m)] for _ in range(rows)], dtype=np.int64)
            for lin_ in (None, lin):
                chosen = quadform.bilinear(x, a, y, p, lin_, outer)
                with monkeypatch.context() as patch:
                    patch.setattr(quadform, "FLOAT_EXACT", 0)
                    int64 = quadform.bilinear(x, a, y, p, lin_, outer)
                want = _bilinear_oracle(x, a, y, lin_, outer)
                exact = _float_side(x, a, y, p)
                sides.append(exact and not outer)
                assert chosen.dtype == int64.dtype == np.int64
                if exact:
                    assert chosen.tolist() == int64.tolist() == want
                else:
                    assert np.array_equal(chosen, int64)
                    assert np.abs(chosen).max() < 2**62
                    assert (chosen % p).tolist() == (np.array(want, dtype=object) % p).tolist()
                if lo < 0 or hi > 2**40:
                    assert not exact
    assert True in sides and False in sides
    if p == 2**31 - 1:
        # x a sums two products near 2^62, which int64 cannot hold
        x = np.full((1, 2), p - 1, dtype=np.int64)
        with pytest.raises(MalformedInput, match="too large"):
            quadform.bilinear(x, x.T.copy(), np.ones((1, 1), dtype=np.int64), p)
    # the row form x = X, a = lin = 1, y = 1 at p = 2 reads X + 1: one side
    # of 2^53 is exact in float64, the other only in int64
    if p == 2:
        one = np.ones((1, 1), dtype=np.int64)
        for value in (2**53 - 1, 2**53 + 1):
            x = np.array([[value - 1]], dtype=np.int64)
            assert _float_side(x, one, one, 2) == (value < 2**53)
            assert quadform.bilinear(x, one, one, 2, one[0]).tolist() == [value]


def _enumerate_mset_reference(family, M, k):
    """The block product filter enumerate_mset replaced: every candidate row
    (prefix, y) is materialised with repeat/tile and kept when each standard
    function with top block blk vanishes on it."""
    rep = standard_rep(family, M, k)
    partial = np.zeros((1, 0), dtype=np.int64)
    block_pts = all_points(M.p, M.d)
    for blk in range(1, k + 1):
        left = np.repeat(partial, len(block_pts), axis=0)
        right = np.tile(block_pts, (len(partial), 1))
        cand = np.concatenate([left, right], axis=1)
        for f in rep.functions:
            if f.max_block() == blk:
                g = restrict_blocks(f, M, list(range(1, blk + 1)))
                cand = cand[g.eval_array(cand) == 0]
        partial = cand
    return partial


def _box1_hn_family(M):
    # Box_1 in the (h, n) block order: M(n) = 0 and M(n + h) - M(n) = 0
    return [MQuadFn(M, 2, {(2, 2): 1}, None, M.v), MQuadFn(M, 2, {(1, 2): 2, (1, 1): 1})]


def _mset_cases():
    f5, f7, f11 = PrimeField(5), PrimeField(7), PrimeField(11)
    M = QuadForm.dot_form(f5, 3, radius=1)
    N = QuadForm(f5, [[1, 0], [0, 2]], [1, 0], 3)
    mixed = [
        MQuadFn(N, 2, {(1, 1): 1, (1, 2): 2}, [[1, 0], [0, 0]], 3),
        MQuadFn(N, 2, {(1, 2): 2}, [[0, 1], [2, 0]], 1),
        MQuadFn(N, 2, {(1, 1): 1, (1, 2): 4}, [[1, 1], [2, 0]], 4),
    ]
    R = random_form(f7, 3, random.Random(71), min_rank=3)
    S = QuadForm.dot_form(f11, 3, radius=2)
    E = QuadForm(f5, [[1]], [0], 3)  # n^2 = 2 has no root mod 5
    return {
        "box1_nh": (gowers_family(M, 1), M, 2),
        "box1_hn": (_box1_hn_family(M), M, 2),
        "box2": (gowers_family(M, 2), M, 3),
        "mixed": (mixed, N, 2),
        "random_p7": (gowers_family(R, 1), R, 2),
        "vm_k1": (sphere_family(S), S, 1),
        "first_block_empty": ([MQuadFn(E, 2, {(1, 1): 1}, None, E.v)], E, 2),
        # column cut: block 1 is free, then M(n) = 0 alone removes every
        # block-2 point, so the empty result follows 5 prefix rows
        "second_block_empty": ([MQuadFn(E, 2, {(2, 2): 1}, None, E.v)], E, 2),
        # two prefix-free functions (M(n) = 0 and a linear one) cut block 2
        # and a cross function masks the rest
        "cut_two_plus_cross": (
            [
                MQuadFn(M, 2, {(2, 2): 1}, [[0] * 3, M.u[:]], M.v),
                MQuadFn(M, 2, None, [[0] * 3, [1, 2, 0]], 1),
                MQuadFn(M, 2, {(1, 2): 1, (1, 1): 3}, [[1, 0, 4], [0] * 3], 2),
            ],
            M,
            2,
        ),
        # a nonzero constant in a prefix-free function of block 1 and in
        # both kinds of block-3 function
        "cut_constant": (
            [
                MQuadFn(N, 3, None, [[1, 3], [0, 0], [0, 0]], 4),
                MQuadFn(N, 3, {(3, 3): 2}, [[0, 0], [0, 0], [1, 0]], 3),
                MQuadFn(N, 3, {(2, 3): 1}, [[0, 0], [1, 0], [0, 0]], 2),
            ],
            N,
            3,
        ),
    }


def _column_cut_shape(family, M, k):
    """Per block, (prefix-free functions, masked functions) of the standard
    representation, split the way enumerate_mset splits them."""
    shape = [[0, 0] for _ in range(k)]
    for f in standard_rep(family, M, k).functions:
        blk = f.max_block()
        free = all(ij == (blk, blk) for ij in f.b) and not any(map(any, f.v[: blk - 1]))
        shape[blk - 1][0 if free else 1] += 1
    return [tuple(s) for s in shape]


def test_column_cut_cases_exercise_the_cut():
    cases = _mset_cases()
    assert _column_cut_shape(*cases["box1_hn"]) == [(0, 0), (1, 1)]
    assert _column_cut_shape(*cases["second_block_empty"]) == [(0, 0), (1, 0)]
    assert _column_cut_shape(*cases["cut_two_plus_cross"]) == [(0, 0), (2, 1)]
    assert _column_cut_shape(*cases["cut_constant"]) == [(1, 0), (0, 0), (1, 1)]
    fam, M, k = cases["cut_constant"]
    assert all(f.u for f in standard_rep(fam, M, k).functions)
    assert enumerate_mset(*cases["second_block_empty"]).shape == (0, 2)
    assert len(enumerate_mset(*cases["cut_two_plus_cross"])) > 0
    assert len(enumerate_mset(*cases["cut_constant"])) > 0


@pytest.mark.parametrize("chunk_rows", [1, 7, 300, None])
@pytest.mark.parametrize("case", sorted(_mset_cases()))
def test_enumerate_mset_matches_block_product_reference(monkeypatch, case, chunk_rows):
    # rows, row order, dtype and shape equal the materialised filter at
    # every chunk cap, the default cap (None) included
    family, M, k = _mset_cases()[case]
    want = _enumerate_mset_reference(family, M, k)
    if chunk_rows is not None:
        monkeypatch.setattr(msets, "ENUM_CHUNK_ROWS", chunk_rows)
    got = enumerate_mset(family, M, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_enumerate_mset_budget_counts_prefix_rows_times_block_points(f5):
    # block 1 of the (h, n) order carries no function, so block 2 needs
    # 125 prefix rows x 125 block points = 15,625 candidates
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = _box1_hn_family(M)
    assert standard_rep(fam, M, 2).dimension_vector == [0, 2]
    assert len(enumerate_mset(fam, M, 2, budget=15625)) == gowers_set(M, 1)
    with pytest.raises(BudgetExceeded):
        enumerate_mset(fam, M, 2, budget=15624)
    with pytest.raises(NotConsistent):
        enumerate_mset([fam[0], MQuadFn(M, 2, {(2, 2): 1}, None, M.v + 1)], M, 2)


def _random_family(r, M, k):
    """One to three functions, each with a random top block, drawn
    prefix-free (at most b on the top block's square, a linear part on the
    top block only: "free" and "linear") or with random cross terms and
    linear parts on earlier blocks ("cross")."""
    p, d = M.p, M.d
    fam = []
    for _ in range(r.randint(1, 3)):
        top = r.randint(1, k)
        v = [[0] * d for _ in range(k)]
        v[top - 1] = [r.randrange(p) for _ in range(d)]
        b = {}
        kind = r.choice(["free", "linear", "cross"])
        if kind == "free":
            b[(top, top)] = r.randrange(p)
        elif kind == "cross":
            for i in range(1, top + 1):
                if r.random() < 0.6:
                    b[(i, top)] = r.randrange(p)
            for i in range(top - 1):
                if r.random() < 0.3:
                    v[i] = [r.randrange(p) for _ in range(d)]
        fam.append(MQuadFn(M, k, b, v, r.randrange(p)))
    return fam


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 7]))
def test_enumerate_mset_matches_reference_on_random_families(seed, p):
    r = random.Random(seed)
    d = r.randint(1, 3)
    k = r.randint(1, 6 // d)
    M = random_form(PrimeField(p), d, r)
    fam = _random_family(r, M, k)
    try:
        want = _enumerate_mset_reference(fam, M, k)
    except NotConsistent:
        with pytest.raises(NotConsistent):
            enumerate_mset(fam, M, k)
        return
    with pytest.MonkeyPatch.context() as mp:
        for cap in (1, 37, None):
            if cap is not None:
                mp.setattr(msets, "ENUM_CHUNK_ROWS", cap)
            got = enumerate_mset(fam, M, k)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["box1_nh", "box1_hn", "box2", "mixed"])
def test_fubini_prepare_groups_lexicographic_rows_by_prefix(case):
    family, M, k = _mset_cases()[case]
    pts, boundaries, omega_i_size = fubini_prepare(family, M, k, 1)
    assert np.array_equal(pts, enumerate_mset(family, M, k))
    prefixes = [tuple(row[: M.d]) for row in pts.tolist()]
    starts = [t for t in range(len(prefixes)) if t == 0 or prefixes[t] != prefixes[t - 1]]
    assert boundaries == starts + [len(pts)]
    assert len(set(prefixes)) == len(starts)  # each prefix forms one run
    proj, _ = i_projection(family, M, k, {1})
    shaped = [restrict_blocks(g, M, [1]) for g in proj]
    assert omega_i_size == len(_enumerate_mset_reference(shaped, M, 1))


def _sample_mset_reference(family, M, k, rng, count, max_rounds=4000):
    """sample_mset with every function of the family evaluated on every row
    of a batch, the rows kept by one mask."""
    p, d = M.p, M.d
    np_rng = np.random.default_rng(rng.randrange(2**63))
    got, have = [], 0
    for _ in range(max_rounds):
        batch = np_rng.integers(0, p, size=(4096, k * d), dtype=np.int64)
        keep = np.ones(len(batch), dtype=bool)
        for f in family:
            keep &= f.eval_array(batch) == 0
        hits = batch[keep]
        if len(hits):
            got.append(hits)
            have += len(hits)
        if have >= count:
            return np.concatenate(got)[:count]
    raise BudgetExceeded("rejection sampling failed to hit the M-set")


@pytest.mark.parametrize("p", [7, 11])
def test_sample_mset_matches_all_rows_reference(p):
    # same stream, same rows, same order: Box_1 (two functions) and Box_2
    # (four), at a radius where M(n) = 0 has no solution at n = 0
    M = QuadForm.dot_form(PrimeField(p), 3, radius=1)
    for s, count in ((1, 300), (2, 12)):
        fam = gowers_family(M, s)
        for seed in range(3):
            got = sample_mset(fam, M, s + 1, random.Random(seed), count)
            want = _sample_mset_reference(fam, M, s + 1, random.Random(seed), count)
            assert got.shape == (count, (s + 1) * 3)
            assert np.array_equal(got, want)


# SHA-256 of the bench's sampled probe configuration (Box_1 at p in {7, 11},
# d = 7, 1500 samples, seeds 0-2): the sample_mset arrays as little-endian
# int64 bytes, and the json.dumps(..., sort_keys=True) of the verdict lists
PROBE_SAMPLES_SHA256 = "ceadf044b5b36b97c5c461afc6e50842136a9c0f70ea9b5d1f46dcb51507f6d1"
PROBE_VERDICTS_SHA256 = "6e546a8c2046bad44d5963c292b3cc8094618189c3454412461738e6d23b1c02"


def test_sampled_probe_bytes_are_pinned():
    samples, verdicts = hashlib.sha256(), []
    for p in (7, 11):
        M = QuadForm.dot_form(PrimeField(p), 7, radius=1)
        fam = gowers_family(M, 1)
        for seed in range(3):
            pts = sample_mset(fam, M, 2, random.Random(seed), 1500)
            samples.update(np.ascontiguousarray(pts, dtype="<i8").tobytes())
            verdicts.append(irreducibility_probe(fam, M, 2, 3, 0.3, 10, random.Random(seed), samples=1500))
    assert samples.hexdigest() == PROBE_SAMPLES_SHA256
    assert hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest() == PROBE_VERDICTS_SHA256


def _random_poly_reference(p, nvars, degree, rng):
    """The dense draw _random_poly replaced: one randrange per monomial."""
    return FpMultiPoly(p, nvars, {e: rng.randrange(p) for e in _binom_basis_indices(nvars, degree)})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 2**31 - 1, 2**61 - 1])
def test_random_poly_draws_the_randrange_stream(p):
    # the same terms in the same order, as Python ints, and the generator
    # left where the per-monomial randrange calls leave it; at p = 17 the
    # 5-bit values reject 15 of 32 words, and 2^61 - 1 takes two words a draw
    for nvars, degree in ((1, 0), (3, 2), (14, 3)):
        count = len(_binom_basis_indices(nvars, degree))
        for seed in range(3):
            got, want = random.Random(seed), random.Random(seed)
            f = msets._random_poly(p, nvars, degree, got)
            g = _random_poly_reference(p, nvars, degree, want)
            assert list(f.terms.items()) == list(g.terms.items())
            assert all(type(c) is int and 0 < c < p for c in f.terms.values())
            assert got.getstate() == want.getstate()
            if p == 17 and count > 10:
                plain = random.Random(seed)
                plain.getrandbits(32 * count)  # one word per monomial, none rejected
                assert plain.getstate() != got.getstate()


def test_probe_builds_its_closure_plan_once():
    # the bench's Box_1 probe at p = 11, d = 7: the ten polynomials of every
    # call close to the same 680 monomials, so a second call builds nothing
    M = QuadForm.dot_form(PrimeField(11), 7, radius=1)
    fam = gowers_family(M, 1)
    fpoly._closure_plan.cache_clear()
    for seed in (0, 1):
        irreducibility_probe(fam, M, 2, 3, 0.3, 10, random.Random(seed), samples=1500)
    info = fpoly._closure_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- one echelon per family, one beta per function ------------------------------------


def _random_cross_fn(r, M, k):
    """A function with every b_ij and linear part drawn at random, cross terms included."""
    p, d = M.p, M.d
    b = {(i, j): r.randrange(p) for i in range(1, k + 1) for j in range(i, k + 1)}
    v = [[r.randrange(p) for _ in range(d)] for _ in range(k)]
    return MQuadFn(M, k, b, v, r.randrange(p))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 7]))
def test_as_poly_agrees_with_scalar_evaluate_everywhere(seed, p):
    r = random.Random(seed)
    k = r.randint(1, 3)
    d = r.randint(1, 4 // k)
    M = random_form(PrimeField(p), d, r)
    F = _random_cross_fn(r, M, k)
    pts = all_points(p, k * d)
    want = [F.evaluate([row[i * d : (i + 1) * d] for i in range(k)]) for row in pts.tolist()]
    assert F.as_poly().eval_array(pts).tolist() == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 7]))
def test_classify_flags_match_their_rank_definitions(seed, p):
    # consistent: rank v_M == rank v'_M; independent: rank v'_M == r
    r = random.Random(seed)
    d = r.randint(1, 3)
    k = r.randint(1, 3)
    M = random_form(PrimeField(p), d, r)
    fam = [_random_cross_fn(r, M, k) if r.random() < 0.5 else MQuadFn(M, k) for _ in range(r.randint(1, 4))]
    if r.random() < 0.5:  # a multiple of the first function with another constant
        c = r.randrange(1, p)
        f = fam[0]
        fam.append(MQuadFn(M, k, {ij: c * x for ij, x in f.b.items()}, [[c * x for x in v] for v in f.v], r.randrange(p)))
    rank_full = rank(FpMatrix(M.field, [f.coeff_vectors()[0] for f in fam]))
    rank_prime = rank(FpMatrix(M.field, [f.coeff_vectors()[1] for f in fam]))
    flags = classify(fam, M, k)
    assert flags["consistent"] == (rank_full == rank_prime)
    assert flags["independent"] == (rank_prime == len(fam))


def test_enumerate_mset_reduces_its_family_once(monkeypatch, f5):
    calls = []
    real_rref = msets.rref

    def counted(mat):
        calls.append(mat.nrows)
        return real_rref(mat)

    def never(*args, **kwargs):
        raise AssertionError("enumerate_mset classified its family")

    monkeypatch.setattr(msets, "rref", counted)
    monkeypatch.setattr(msets, "classify", never)
    monkeypatch.setattr(msets, "_nice_search", never)
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = gowers_family(M, 1)
    assert len(enumerate_mset(fam, M, 2)) == gowers_set(M, 1)
    assert calls == [len(fam)]


def test_probe_refuses_an_empty_family_before_any_work(monkeypatch, f5):
    def never(*args, **kwargs):
        raise AssertionError("the probe enumerated or sampled an empty family")

    monkeypatch.setattr(msets, "enumerate_mset", never)
    monkeypatch.setattr(msets, "sample_mset", never)
    M = QuadForm.dot_form(f5, 3, radius=1)
    rng = random.Random(0)
    for budget in (10**6, 1):
        with pytest.raises(HypothesisNotMet, match="nonempty family"):
            irreducibility_probe([], M, 2, 2, 0.3, 10, rng, budget=budget)
    assert rng.random() == random.Random(0).random()


@pytest.mark.parametrize("k", [-1, "2", True, 2.0, None])
def test_k_is_an_int(f5, k):
    # a family has k >= 1 blocks; a single function may have none (the
    # constant prefix that enumerate_mset splits off block 1)
    M = QuadForm.dot_form(f5, 3, radius=1)
    with pytest.raises(MalformedInput, match="k must be an integer >= 0"):
        MQuadFn(M, k)
    with pytest.raises(MalformedInput, match="k must be an integer >= 1"):
        family_from_json(M, {"k": k, "functions": []})
    with pytest.raises(MalformedInput, match="k must be an integer >= 1, got 0"):
        family_from_json(M, {"k": 0, "functions": []})


def test_probe_refuses_an_inconsistent_family_in_either_mode(monkeypatch, f5):
    # M(n) = 0 and M(n) = -1 span the constant 1, so V is empty: both modes
    # refuse the family before a point is enumerated or drawn
    def never(*args, **kwargs):
        raise AssertionError("the probe enumerated or sampled an inconsistent family")

    monkeypatch.setattr(msets, "enumerate_mset", never)
    monkeypatch.setattr(msets, "sample_mset", never)
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = [MQuadFn(M, 2, {(1, 1): 1}, None, M.v), MQuadFn(M, 2, {(1, 1): 1}, None, M.v + 1)]
    for budget in (10**6, 1):  # exact, then sampled
        with pytest.raises(NotConsistent):
            irreducibility_probe(fam, M, 2, 2, 0.3, 10, random.Random(0), budget=budget)


def test_a_function_of_another_k_is_refused(f5):
    # a block-1 function in a family read as k = 2 (or 3) has a shorter
    # coefficient vector; every reduction of the family refuses it
    M = QuadForm.dot_form(f5, 3, radius=1)
    fam = [MQuadFn(M, 1, {(1, 1): 1}, None, M.v)]
    for call in (
        lambda: standard_rep(fam, M, 2),
        lambda: enumerate_mset(fam, M, 2),
        lambda: standard_rep(fam, M, 3),
    ):
        with pytest.raises(MalformedInput, match="must have k = "):
            call()
    assert standard_rep(fam, M, 1).total_codim == 1
