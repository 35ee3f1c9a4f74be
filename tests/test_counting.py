import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp.counting import (
    BudgetExceeded,
    DependentShifts,
    RankHypothesisFailed,
    all_points,
    enumerate_zeros,
    exp_sum,
    exp_sum_bound,
    gauss_sum,
    gowers_blocks,
    gowers_count_report,
    gowers_set,
    quadratic_root_count,
    vmh_count_report,
    zero_count_check,
)
from spherefp import counting
from spherefp.division import ZpQuadForm, first_gowers_witness, gowers_equation_solve
from spherefp.equidist import sphere_points
from spherefp.ffcore import FpMatrix, MalformedInput, PrimeField, TheoremViolation, nullspace, rank as mat_rank
from spherefp.fpoly import FpMultiPoly
from spherefp.msets import enumerate_mset, gowers_family
from spherefp.quadform import AffineSubspace, QuadForm, perp

from conftest import box_count, box_rows, random_form, random_fp_poly, random_symmetric


def test_sphere_30_with_fiber_oracle(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    zeros = enumerate_zeros(M)
    assert len(zeros) == 30
    fibers = [int((zeros[:, 0] == x).sum()) for x in range(5)]
    assert fibers == [4, 9, 4, 4, 9]


def test_enumerate_zeros_trivial(f5):
    none = QuadForm(f5, [[0, 0], [0, 0]], None, 1)
    assert len(enumerate_zeros(none)) == 0
    every = QuadForm(f5, [[0, 0], [0, 0]], None, 0)
    assert len(enumerate_zeros(every)) == 25


def test_enumeration_is_lexicographic(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    pts = [tuple(int(x) for x in row) for row in enumerate_zeros(M)]
    assert pts == sorted(pts)


def test_budget_guard(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    with pytest.raises(BudgetExceeded):
        enumerate_zeros(M, None, budget=10)


def test_zero_count_check(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    rep = zero_count_check(M)
    assert rep.exact == 30 and rep.main_term == 25 and rep.passed

    # a hyperplane section at d = 3 drops the restricted rank to 2, below
    # the lemma's hypothesis, and is rejected rather than mis-reported
    V3 = perp(M, [[1, 0, 0]])
    with pytest.raises(RankHypothesisFailed):
        zero_count_check(M, AffineSubspace(f5, V3))

    # at d = 4 the same section keeps rank 3 and the count checks out
    M4 = QuadForm.dot_form(f5, 4, radius=1)
    V = perp(M4, [[1, 0, 0, 0]])
    S = AffineSubspace(f5, V)
    rep2 = zero_count_check(M4, S)
    assert rep2.main_term == 25 and rep2.exact == 30 and rep2.passed

    flat = QuadForm(f5, [[0, 0], [0, 0]])
    with pytest.raises(RankHypothesisFailed):
        zero_count_check(flat)


def test_exp_sum_examples(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    assert exp_sum(M, (0, 0, 0)) == 1.0
    assert exp_sum(M, (5, 0, 0)) == 1.0
    # a zero frequency takes the single-phase rule: e(0), repr and all
    assert [repr(exp_sum(M, xi)) for xi in ((0, 0, 0), (5, 0, 0))] == ["(1+0j)"] * 2
    val = exp_sum(M, (1, 0, 0))
    # closed form from the fiber decomposition 4, 9, 4, 4, 9:
    # |sum| = 5 (sqrt 5 - 1) / 2, averaged over the 30 points
    assert abs(abs(val) - 5 * (math.sqrt(5) - 1) / 2 / 30) < 1e-12


def test_exp_sum_bound_exhaustive_p5_d3(f5, rng):
    M = QuadForm.dot_form(f5, 3, radius=2)
    bound = exp_sum_bound(M)
    for xi in all_points(5, 3)[1:]:
        assert abs(exp_sum(M, tuple(int(x) for x in xi))) <= bound


def mean_of_phases(counts, total, p):
    """exp_sum's float path from the histogram of xi . n over V(M): e(t/p)
    when one phase t holds every point, else root_sum over the total."""
    if np.count_nonzero(counts) == 1:
        return counting._roots_of_unity(p)[int(np.flatnonzero(counts)[0])]
    z = counting.root_sum(counts, p)
    return complex(z.real / total, z.imag / total)


def reference_exp_sum(M, xi):
    """exp_sum by enumeration: np.bincount of xi . n over the rows of V(M)."""
    if len(xi) != M.d:
        raise MalformedInput(f"xi has length {len(xi)}, the form has d = {M.d}")
    pts = enumerate_zeros(M)
    if len(pts) == 0:
        raise RankHypothesisFailed("V(M) is empty")
    p = M.p
    phases = (pts @ np.array([x % p for x in xi], dtype=np.int64)) % p
    return mean_of_phases(np.bincount(phases, minlength=p), len(pts), p)


def diagonal_phase_counts(p, coeffs, xi, v):
    """|{n : sum_i coeffs_i n_i^2 + v = 0, xi . n = t}| for t in F_p, from the
    joint histogram of (coeffs_i n_i^2, xi_i n_i) convolved over the axes."""
    joint = np.zeros((p, p), dtype=np.int64)
    joint[0, 0] = 1
    for a, x in zip(coeffs, xi):
        joint = sum(np.roll(joint, (a * n * n % p, x * n % p), axis=(0, 1)) for n in range(p))
    return joint[-v % p]


def _outcome_repr(call):
    try:
        return repr(call())
    except (MalformedInput, RankHypothesisFailed) as exc:
        return repr(exc)


def test_exp_sum_matches_the_enumerating_reference(rng):
    # the phase counts are closed forms, and on a seeded battery the mean
    # matches the enumerating reference repr for repr, with u off Im A,
    # xi = 0 mod p, rank < d, an empty V(M) and a wrong length all among
    # the cases
    kinds = dict.fromkeys(("u off Im A", "xi = 0", "rank < d", "empty", "xi wrong length"), 0)
    cases = 0
    while cases < 360:
        p = rng.choice((5, 7, 11, 13))
        d = rng.randint(1, 5 if p <= 7 else 4)
        field = PrimeField(p)
        forms = closed_form_cases(field, d, rng) + [QuadForm(field, [[0] * d for _ in range(d)], None, rng.randrange(1, p))]
        for M in forms:
            draw = rng.random()
            if draw < 0.1:
                xi = [0] * d
            elif draw < 0.2:
                xi = [p * rng.randrange(-2, 3) for _ in range(d)]
            else:
                xi = [rng.randrange(-p, 2 * p) for _ in range(d)]
            if rng.random() < 0.02:
                xi = xi + [1]
            want = _outcome_repr(lambda: reference_exp_sum(M, xi))
            assert _outcome_repr(lambda: exp_sum(M, xi)) == want, (M, xi)
            rank = mat_rank(M.A)
            kinds["u off Im A"] += mat_rank(FpMatrix(field, M.A.rows + [M.u])) > rank
            kinds["xi = 0"] += len(xi) == d and not any(x % p for x in xi)
            kinds["rank < d"] += rank < d
            kinds["empty"] += want == repr(RankHypothesisFailed("V(M) is empty"))
            kinds["xi wrong length"] += len(xi) != d
            cases += 1
    assert min(kinds.values()) >= 3, kinds


def test_exp_sum_diagonalizes_once_and_answers_past_the_enumeration_budget(monkeypatch):
    # the sphere of F_13^8 has 13^8 = 815,730,721 points, past the default
    # budget, which the enumerating exp_sum refused; the closed form
    # diagonalizes once per xi, enumerates nothing, and matches the
    # convolution count of the diagonal form
    def never(*args, **kwargs):
        raise AssertionError("V(M) was enumerated")

    monkeypatch.setattr(counting, "_solve_zeros", never)
    diagonalized = []
    diagonalize = counting._congruence_diagonalize
    monkeypatch.setattr(counting, "_congruence_diagonalize", lambda M: diagonalized.append(M.d) or diagonalize(M))
    p, d = 13, 8
    M = QuadForm.dot_form(PrimeField(p), d, 1)
    for xi in ([1] + [0] * 7, [1, 2, 3, 4, 5, 6, 7, 8], [0] * 8, [13, 0, 0, 0, 0, 0, 0, -26]):
        counts = diagonal_phase_counts(p, [1] * d, xi, -1)
        diagonalized.clear()
        assert repr(exp_sum(M, xi)) == repr(mean_of_phases(counts, int(counts.sum()), p))
        assert diagonalized == [d - 1] if any(x % p for x in xi) else diagonalized == [d]


def test_gauss_sum_modulus_and_legendre_relation():
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for j in range(1, p):
            g = gauss_sum(p, j)
            assert abs(abs(g) - math.sqrt(p)) < 1e-9
        # substitution n -> cn: sum(j c^2) = sum(j)
        for j in range(1, p):
            for c in range(1, p):
                assert abs(gauss_sum(p, j * c * c % p) - gauss_sum(p, j)) < 1e-9
        # Legendre relation: sum over a residue vs non-residue differ by sign
        nr = field.smallest_nonresidue()
        assert abs(gauss_sum(p, 1) + gauss_sum(p, nr)) < 1e-9


def test_quadratic_root_count(f5):
    rep = quadratic_root_count(QuadForm.dot_form(f5, 2))
    assert rep.exact == 17 and float(rep.main_term) == 12.5 and rep.passed
    zero_form = QuadForm(f5, [[0, 0], [0, 0]])
    with pytest.raises(RankHypothesisFailed):
        quadratic_root_count(zero_form)
    # M == non-square constant has no quadratic-root points; but rank 0 is
    # rejected, so test via a rank-2 form plus non-square shift at p = 7
    f7 = PrimeField(7)
    rep7 = quadratic_root_count(QuadForm.dot_form(f7, 2))
    brute = sum(
        1
        for x in range(7)
        for y in range(7)
        if ((x * x + y * y) % 7) in {a * a % 7 for a in range(7)}
    )
    assert rep7.exact == brute


def test_vmh(f5):
    M = QuadForm.dot_form(f5, 5, radius=1)
    # the points with M(n) = M(n + h) = 0, counted point by point
    want = reference_zeros(M)
    want = want[M.shifted([1, 0, 0, 0, 0]).eval_array(want) == 0]
    rep = vmh_count_report(M, [(1, 0, 0, 0, 0)])
    assert rep.exact == len(want) and rep.passed and rep.main_term == 125

    assert vmh_count_report(M, []).exact == len(enumerate_zeros(M))
    with pytest.raises(DependentShifts):
        vmh_count_report(M, [(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)])


def test_gowers_sets(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    assert gowers_set(M, 0) == 30
    v = len(enumerate_zeros(M))
    assert gowers_set(M, 1) == v * v
    empty = QuadForm(f5, [[0, 0], [0, 0]], None, 1)
    assert gowers_set(empty, 1) == 0
    # explicit tuples satisfy the cube condition
    tuples = box_rows(M, 2).reshape(-1, 3, 3)
    for (n, h1, h2) in tuples[:50]:
        for e1 in (0, 1):
            for e2 in (0, 1):
                pt = [(n[i] + e1 * h1[i] + e2 * h2[i]) % 5 for i in range(3)]
                assert M.evaluate(pt) == 0


def test_gowers_count_report_main_term(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    rep = gowers_count_report(M, 1)
    assert rep.exact == 900 and rep.main_term == 5 ** (2 * 3 - 2)


def test_ns_lemma_zero_set_bound(rng):
    # |V(P)| <= C p^{d-1} for nonzero P, exhaustive at p = 5, 7 and d = 3
    for p in (5, 7):
        pts = all_points(p, 3)
        for _ in range(40):
            P = random_fp_poly(p, 3, 4, rng)
            if P.is_zero():
                continue
            count = int((P.eval_array(pts) == 0).sum())
            assert count <= 4 * p * p


def test_isotropic_and_dependent_tuple_counts(f5):
    # isotropic and dependent pair counts, exhaustive at p = 5, d = 3
    from spherefp.quadform import isotropic_test

    M = QuadForm.dot_form(f5, 3)
    pts = [tuple(int(x) for x in v) for v in all_points(5, 3)]
    iso = 0
    dep = 0
    for h1 in pts:
        for h2 in pts:
            from spherefp.ffcore import FpMatrix, rank as mat_rank

            if mat_rank(FpMatrix(f5, [list(h1), list(h2)])) < 2:
                dep += 1
            elif isotropic_test(M, [list(h1), list(h2)]):
                iso += 1
    d, k, p = 3, 2, 5
    assert dep <= k * p ** ((d + 1) * (k - 1))
    assert iso + dep <= 4 * p ** (k * d - 1)


def test_box1_fiber_average_identity(f5):
    # |E_{(n,h) in Box_1} f - E_h E_{n in V(M)^h} f| <= C p^{-1/2}
    M = QuadForm.dot_form(f5, 3, radius=1)
    zeros = enumerate_zeros(M)
    rng = random.Random(9)
    zero_list = [tuple(int(x) for x in z) for z in zeros]
    zset = set(zero_list)
    table = {}

    def f(n, h):
        key = (n, h)
        if key not in table:
            table[key] = rng.choice((-1, 1))
        return table[key]

    # lhs over Box_1 via the (n, m) parametrization
    vals = []
    for n in zero_list:
        for m in zero_list:
            h = tuple((m[i] - n[i]) % 5 for i in range(3))
            vals.append(f(n, h))
    lhs = sum(vals) / len(vals)
    # rhs: average over all h of the fiber average
    total = 0.0
    for h in all_points(5, 3):
        h = tuple(int(x) for x in h)
        fiber = [n for n in zero_list if tuple((n[i] + h[i]) % 5 for i in range(3)) in zset]
        if fiber:
            total += sum(f(n, h) for n in fiber) / len(fiber)
    rhs = total / 125
    assert abs(lhs - rhs) <= 4 * 5**-0.5


def test_subspace_enumeration_matches_brute_force(f5):
    M = QuadForm.dot_form(f5, 3, radius=1)
    S = AffineSubspace(f5, [[1, 1, 0], [0, 2, 1]], [1, 0, 3])
    got = {tuple(int(x) for x in row) for row in enumerate_zeros(M, S)}
    brute = set()
    for a in range(5):
        for b in range(5):
            pt = [(1 + a + 0) % 5, (a + 2 * b) % 5, (b + 3) % 5]
            if M.evaluate(pt) == 0:
                brute.add(tuple(pt))
    assert got == brute


def on_subspace(pts, S):
    """Which rows lie on V + c: W (x - c) = 0 for a basis W of the
    annihilator of V, with no parametrisation of V + c."""
    d = S.dim_ambient
    W = nullspace(FpMatrix(S.field, S.basis)) if S.basis else np.eye(d, dtype=np.int64)
    W = np.array(W, dtype=np.int64).reshape(-1, d)
    return ((pts - np.array(S.offset, dtype=np.int64)) @ W.T % S.field.p == 0).all(axis=1)


def test_enumerate_zeros_on_subspaces_matches_brute_force(rng):
    # V(M) n (V + c) against all of [p]^d filtered point by point, at every
    # dimension k of V; forms with zero diagonals and unit basis vectors
    # leave the pulled-back form a = 0 on its last axis, the line branch
    # b t + c = 0
    flat = 0
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for d in range(1, 6 if p <= 7 else 5):
            for k in range(d + 1):
                for trial in range(3):
                    M = random_form(field, d, rng)
                    if trial:  # zero the diagonal
                        M = QuadForm(field, [[0 if i == j else x for j, x in enumerate(row)]
                                             for i, row in enumerate(M.A.rows)], M.u, M.v)
                    while True:
                        basis = [[rng.randrange(p) for _ in range(d)] for _ in range(k)]
                        if k and trial:
                            basis[-1] = np.eye(d, dtype=int)[rng.randrange(d)].tolist()
                        if not k or mat_rank(FpMatrix(field, basis)) == k:
                            break
                    S = AffineSubspace(field, basis, [rng.randrange(p) for _ in range(d)])
                    if k:
                        flat += M.composed(S.basis, S.offset).A.rows[-1][-1] == 0
                    want = reference_zeros(M)
                    got = enumerate_zeros(M, S)
                    assert got.dtype == np.int64 and np.array_equal(got, want[on_subspace(want, S)])
    assert flat >= 50


def test_box1_on_subspace_is_squared_count(f5):
    # (n, h) -> (n, n + h) is a bijection Box_1(Omega) -> Omega^2 for any
    # Omega cut from an affine subspace
    M = QuadForm.dot_form(f5, 4, radius=1)
    S = AffineSubspace(f5, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], [0, 1, 0, 0])
    v = len(enumerate_zeros(M, S))
    assert gowers_set(M, 1, S) == v * v


# -- the one Box_s walk behind gowers_set ----------------------------------------


def test_gowers_set_rows_match_mset_enumerator(f5, rng):
    # enumerate_mset builds Box_s block by block from gowers_family: an
    # independent enumerator with the same lexicographic row order as the
    # rows stacked from the walk's blocks
    for M in (QuadForm.dot_form(f5, 3, radius=1), random_form(f5, 3, rng, min_rank=2)):
        for s in (0, 1, 2):
            want = enumerate_mset(gowers_family(M, s), M, s + 1)
            assert np.array_equal(box_rows(M, s), want)
            assert gowers_set(M, s) == len(want)


# -- one point-set format for every enumerator ----------------------------------

F5 = PrimeField(5)
SPHERE3 = QuadForm.dot_form(F5, 3, radius=1)
EMPTY2 = QuadForm(F5, [[0, 0], [0, 0]], None, 1)  # the constant 1
PLANE = AffineSubspace(F5, [[1, 0, 0], [0, 1, 1]], [0, 1, 0])


# name -> (call, row width, whether the set is empty)
SET_ENUMERATORS = {
    "enumerate_zeros": (lambda: enumerate_zeros(SPHERE3), 3, False),
    "enumerate_zeros-empty": (lambda: enumerate_zeros(EMPTY2), 2, True),
    "enumerate_zeros-S": (lambda: enumerate_zeros(SPHERE3, PLANE), 3, False),
    "enumerate_zeros-S-empty": (
        lambda: enumerate_zeros(EMPTY2, AffineSubspace(F5, [[1, 1]], [0, 0])), 2, True,
    ),
    "ZpQuadForm.sphere_points": (lambda: ZpQuadForm.sphere(5, 3, 1).sphere_points(), 3, False),
    "ZpQuadForm.sphere_points-empty": (lambda: ZpQuadForm(5, [[0, 0], [0, 0]], None, 1).sphere_points(), 2, True),
    "equidist.sphere_points": (lambda: sphere_points(5, 3, 1), 3, False),
    "equidist.sphere_points-empty": (lambda: sphere_points(5, 1, 2), 1, True),  # n^2 = 2
    # Box_s as the rows stacked from gowers_blocks, the walk gowers_set counts
    "gowers_set-s0": (lambda: box_rows(SPHERE3, 0), 3, False),
    "gowers_set-s1": (lambda: box_rows(SPHERE3, 1), 6, False),
    "gowers_set-s2": (lambda: box_rows(SPHERE3, 2), 9, False),
    "gowers_set-S": (lambda: box_rows(SPHERE3, 2, PLANE), 9, False),
    "gowers_set-empty": (lambda: box_rows(EMPTY2, 1), 4, True),
    "enumerate_mset": (lambda: enumerate_mset(gowers_family(SPHERE3, 1), SPHERE3, 2), 6, False),
    "enumerate_mset-empty": (
        lambda: enumerate_mset(gowers_family(EMPTY2, 1), EMPTY2, 2), 4, True,
    ),
}


@pytest.mark.parametrize("name", list(SET_ENUMERATORS))
def test_set_enumerators_return_lex_ordered_int64_rows(name):
    # a point set is an (N, width) int64 array with strictly increasing
    # lexicographic rows, from every enumerator and on an empty set too
    call, width, empty = SET_ENUMERATORS[name]
    pts = call()
    assert isinstance(pts, np.ndarray) and pts.dtype == np.int64
    assert pts.ndim == 2 and pts.shape[1] == width
    assert (len(pts) == 0) == empty
    rows = pts.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_gowers_set_budget_counts_every_walked_tuple(f5):
    # Box_s for s <= 2 is a closed form and takes no budget, so it answers
    # at budget 1, on an empty V(M) too.  The walk's rule, one unit per
    # tuple (n, h_1..h_t), t <= s, stays with what enumerates: the fit check
    # of a Box_s scan charges |V| + |Box_1| + |Box_2| = 30 + 900 + 7650, with
    # the walk's message one unit below, and p^d = 25 refuses first
    M = QuadForm.dot_form(f5, 3, radius=1)
    for s, used, count in ((1, 930, 900), (2, 8580, 7650)):
        assert gowers_set(M, s, budget=1) == count
        assert counting._metered_gowers_set(M, s, None, used) == count
        with pytest.raises(BudgetExceeded, match=rf"^Box_{s} walk exceeds budget {used - 1}$"):
            counting._metered_gowers_set(M, s, None, used - 1)
    for s in range(4):
        if s <= 2:
            assert gowers_set(EMPTY2, s, None, 1) == 0
        # V(M) is empty, so no tuple is charged: only p^d = 25 can refuse
        count = gowers_set if s == 3 else counting._metered_gowers_set
        with pytest.raises(BudgetExceeded, match=r"^enumeration of size 25 exceeds budget 24$"):
            count(EMPTY2, s, None, 24)
        assert count(EMPTY2, s, None, 25) == 0


def test_gowers_set_refuses_below_n_n_plus_1_before_any_pair_product(monkeypatch, f5):
    # every walk at s >= 1 charges the N tuples (n) and the N^2 tuples
    # (n, h_1), so a budget below N (N + 1) is refused up front, with the
    # walk's message; |Box_2| is charged next, in closed form, so the s = 3
    # walk starts, and reads pairs, only once |V| + |Box_1| + |Box_2| = 8580
    # fits.  |Box_2| itself is free of budget
    M = QuadForm.dot_form(f5, 3, radius=1)
    N = 30
    real = counting._pair_zeros
    read = []

    def spy(H, A, p, charge):
        read.append(len(H))
        return real(H, A, p, charge)

    monkeypatch.setattr(counting, "_pair_zeros", spy)
    for budget in (N * (N + 1) - 1, N * (N + 1)):
        with pytest.raises(BudgetExceeded, match=rf"^Box_3 walk exceeds budget {budget}$"):
            gowers_set(M, 3, budget=budget)
    assert read == []
    with pytest.raises(BudgetExceeded, match=r"^Box_3 walk exceeds budget 8580$"):
        gowers_set(M, 3, budget=8580)
    assert read != []
    assert gowers_set(M, 2, budget=N * (N + 1) - 1) == 7650


def _walk_used(M, s, S, budget):
    """The units the gowers_blocks walk charges in all, or None past budget:
    what it charged before its last block plus that block's rows."""
    used = 0
    try:
        for _, H, room in gowers_blocks(M, s, S, budget):
            used = budget - room + len(H)
    except BudgetExceeded:
        return None
    return used


def _outcome(call):
    try:
        return call()
    except BudgetExceeded as exc:
        return str(exc)


def closed_form_cases(field, d, rng):
    """Forms in d variables: two random ones (often singular), a singular one
    with u off Im A (A's first row and column zero, u_0 != 0), the same A
    with u = 0, and an affine form u.x + v."""
    p = field.p
    forms = [random_form(field, d, rng) for _ in range(2)]
    A = random_symmetric(field, d, rng)
    for j in range(d):
        A[0][j] = A[j][0] = 0
    u = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
    forms.append(QuadForm(field, A, u, rng.randrange(p)))
    forms.append(QuadForm(field, A, None, rng.randrange(p)))
    forms.append(QuadForm(field, [[0] * d for _ in range(d)], u, rng.randrange(p)))
    return forms


def closed_form_subspaces(field, M, rng):
    """F_p^d, a random slice V + c of dimension 1..d, and a point subspace
    on V(M) or off it."""
    p, d = field.p, M.d
    k = rng.randint(1, d)
    while True:
        basis = [[rng.randrange(p) for _ in range(d)] for _ in range(k)]
        if mat_rank(FpMatrix(field, basis)) == k:
            break
    zeros = enumerate_zeros(M).tolist()
    point = rng.choice(zeros) if zeros and rng.random() < 0.5 else [rng.randrange(p) for _ in range(d)]
    return [None, AffineSubspace(field, basis, [rng.randrange(p) for _ in range(d)]), AffineSubspace(field, [], point)]


def test_gowers_set_counts_the_walk_under_its_budget(rng):
    # the counter (closed form for s <= 2, the walk after it for s = 3)
    # against the walk: the same |Box_s| on F_p^d, on random subspaces and
    # on point subspaces, for random (often rank-deficient) forms, forms
    # with u off Im A and affine forms.  For s <= 2 the count is free of
    # budget, so it answers at budget 1; the walk's budget rule is that of
    # the fit check of a Box_s scan (_metered_gowers_set, which gowers_set
    # is at s = 3): the same answer at the walk's exact total used and the
    # same BudgetExceeded one unit below it (the walk's message, or
    # enumerate_zeros' p^k one, which comes first); and past the cap, the
    # same refusal
    cap, answered = 2 * 10**4, 0
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for d in range(1, 5):
            for M in closed_form_cases(field, d, rng):
                for S in closed_form_subspaces(field, M, rng):
                    for s in range(4):
                        count = gowers_set if s == 3 else counting._metered_gowers_set
                        if s <= 2:
                            assert gowers_set(M, s, S, 1) == gowers_set(M, s, S)
                        used = _walk_used(M, s, S, cap)
                        if used is None:
                            want = _outcome(lambda: box_count(M, s, S, cap))
                            assert isinstance(want, str)
                            assert _outcome(lambda: count(M, s, S, cap)) == want
                            continue
                        assert gowers_set(M, s, S) == box_count(M, s, S)
                        for budget in (used, used - 1):
                            want = _outcome(lambda: box_count(M, s, S, budget))
                            assert _outcome(lambda: count(M, s, S, budget)) == want
                        assert isinstance(want, str)
                        answered += isinstance(_outcome(lambda: count(M, s, S, used)), int)
    assert answered >= 300  # the others stop at enumerate_zeros' p^k check first


# -- the closed forms against Lidl-Niederreiter -----------------------------------


def lidl_niederreiter_count(p, coeffs, t, d):
    """#{x in F_p^d : sum_i coeffs_i x_i^2 = t}, the coefficients nonzero
    and the other d - r variables free: Lidl-Niederreiter, Finite Fields,
    Thms 6.26 (r even) and 6.27 (r odd), eta by Euler's criterion."""

    def eta(x):
        x %= p
        return 0 if x == 0 else (1 if pow(x, (p - 1) // 2, p) == 1 else -1)

    r, delta = len(coeffs), math.prod(coeffs)
    if r == 0:
        n = int(t % p == 0)
    elif r % 2:
        n = p ** (r - 1) + p ** ((r - 1) // 2) * eta((-1) ** ((r - 1) // 2) * t * delta)
    else:
        nu = p - 1 if t % p == 0 else -1
        n = p ** (r - 1) + nu * p ** ((r - 2) // 2) * eta((-1) ** (r // 2) * delta)
    return p ** (d - r) * n


def test_zero_counts_match_lidl_niederreiter_on_diagonal_forms(rng):
    # sum_i D_i x_i^2 - t in a random basis, on all of F_p^d for d up to 6:
    # the closed-form |V(M)| and |Box_1| = |V(M)|^2 against the textbook
    # count, with the oracle itself checked by enumeration where d <= 3
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for d in range(7):
            for r in range(d + 1):
                coeffs = [rng.randrange(1, p) for _ in range(r)]
                t = rng.randrange(p)
                diag = [[coeffs[i] if i == j and i < r else 0 for j in range(d)] for i in range(d)]
                M = QuadForm(field, diag, None, -t)
                if d:
                    while True:
                        R = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
                        if mat_rank(FpMatrix(field, R)) == d:
                            break
                    M = M.composed(R)
                want = lidl_niederreiter_count(p, coeffs, t, d)
                if 1 <= d <= 3:
                    assert len(reference_zeros(M)) == want
                assert gowers_set(M, 0) == want and gowers_set(M, 1) == want * want
                if r >= 3:
                    assert zero_count_check(M).exact == want


def _minor_det(G, p):
    """det G mod p for a stack of small square int64 matrices (cofactors)."""
    if G.shape[-1] == 1:
        return G[:, 0, 0] % p
    rest = np.delete(G, 0, axis=1)
    return sum((-1) ** j * G[:, 0, j] * _minor_det(np.delete(rest, j, axis=2), p) for j in range(G.shape[-1])) % p


def pencil_classes_by_enumeration(p, s):
    """The nonzero xi in F_p^(2^s) counted by the class (r_G, eta_G,
    eta_sigma, w0) of G = sum_eps xi_eps c_eps^T c_eps, c_eps = (1, eps), one
    xi at a time: r_G is the largest size of a nonzero principal minor, and
    every such minor has the square class of det' G."""

    def eta(x):
        t = np.ones_like(x)
        for _ in range((p - 1) // 2):
            t = t * x % p
        return np.where(t == p - 1, -1, t)

    n = s + 1
    c = np.hstack([np.ones((2**s, 1), dtype=np.int64), all_points(2, s)])
    xi = all_points(p, 2**s)[1:]
    G = np.einsum("xe,ei,ej->xij", xi, c, c) % p
    rank, eta_g = np.zeros(len(G), dtype=np.int64), np.zeros(len(G), dtype=np.int64)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            minor = _minor_det(G[:, idx][:, :, idx], p)
            new = (minor != 0) & (rank < size)
            rank[new], eta_g[new] = size, eta(minor[new])
    w0 = ~G[:, :, 0].any(axis=1)
    keys, counts = np.unique(np.stack([rank, eta_g, eta(G[:, 0, 0]), w0]), axis=1, return_counts=True)
    return {(int(r), int(e), int(f), bool(w)): int(n) for (r, e, f, w), n in zip(keys.T, counts)}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_pencil_classes_match_the_class_of_every_xi(p):
    # the closed-form class counts of _pencil_classes against the
    # classification of every nonzero xi, at s = 0 and s = 2 (|Box_1| = N^2
    # needs no table), both classes of p mod 4
    for s in (0, 2):
        table = counting._pencil_classes(p, s)
        assert all(type(n) is int and n > 0 for _, n in table)
        assert sum(n for _, n in table) == p ** 2**s - 1
        assert dict(table) == pencil_classes_by_enumeration(p, s)


def test_closed_form_counts_do_no_work_that_grows_with_p():
    # the class table is a closed form, so a set of dimension 0 or 1 at a
    # large prime is counted at once; x^2 = 1 has |V| = 2 and
    # |Box_2| = N(2N - 1) = 6 (h_1 h_2 = 0), a point subspace 1 at every s
    start = time.perf_counter()
    line = QuadForm(PrimeField(100003), [[1]], None, -1)
    assert [gowers_set(line, s) for s in range(3)] == [2, 4, 6]
    big = PrimeField(2**31 - 1)
    sphere = QuadForm.dot_form(big, 3, 1)
    point = AffineSubspace(big, [], [1, 0, 0])
    assert [gowers_set(sphere, s, point) for s in range(3)] == [1, 1, 1]
    assert gowers_count_report(sphere, 2, point).exact == 1
    assert time.perf_counter() - start < 0.5


def test_a_character_sum_off_the_lattice_raises_a_typed_error(monkeypatch):
    # the bracket of the closed form must be a multiple of (p - 1) p^(2^s);
    # a corrupted class table is refused with TheoremViolation, not an assert
    M = QuadForm(F5, [[1]], None, -1)  # x^2 = 1: V(M) = {1, 4}
    assert gowers_set(M, 2) == box_count(M, 2)
    table = counting._pencil_classes
    monkeypatch.setattr(counting, "_pencil_classes", lambda p, s: table(p, s) if s < 2 else (((1, 1, 1, False), 1),))
    with pytest.raises(TheoremViolation, match=r"^the Box_2 character sum 625 is not a multiple of \(p - 1\) p\^4$"):
        gowers_set(M, 2)


def test_box_s_entry_points_refuse_an_s_that_is_not_a_count(monkeypatch):
    # a negative s made the walk run until the budget ran out, and s = 1.5
    # too; every Box_s entry point refuses such an s before any enumeration
    def never(*args):
        raise AssertionError("enumerated before s was checked")

    monkeypatch.setattr(counting, "_solve_zeros", never)
    M = QuadForm.dot_form(F5, 5, 1)
    g = FpMultiPoly(5, 5, {(1, 0, 0, 0, 0): 1})
    calls = (
        lambda s: list(gowers_blocks(M, s)),
        lambda s: gowers_set(M, s),
        lambda s: gowers_count_report(M, s),
        lambda s: gowers_family(M, s),
        lambda s: first_gowers_witness(g, M, s),
        lambda s: gowers_equation_solve(g, g, M, s),
    )
    for call in calls:
        for s in (-1, 1.5, True, "2", None):
            with pytest.raises(MalformedInput, match="s must be an integer >= "):
                call(s)
    # the cube equation takes s - 1 differences of P: s = 0 crashed with an
    # IndexError on the empty prefix of the s = 0 walk
    with pytest.raises(MalformedInput, match="s must be an integer >= 1, got 0"):
        gowers_equation_solve(g, g, M, 0)


def test_box2_on_subspace_matches_brute_force(f5):
    M = QuadForm.dot_form(f5, 4, radius=1)
    S = AffineSubspace(f5, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], [0, 1, 0, 0])
    omega = {tuple(int(x) for x in row) for row in enumerate_zeros(M, S)}
    direction = sorted(tuple(int(x) for x in row) for row in all_points(5, 3) @ np.array(S.basis) % 5)

    def add(x, h):
        return tuple((a + b) % 5 for a, b in zip(x, h))

    brute = []
    for n in sorted(omega):
        # the corners n + h_1 and n + h_2 first, then n + h_1 + h_2
        edge = [h for h in direction if add(n, h) in omega]
        brute += [(n, h1, h2) for h1 in edge for h2 in edge if add(add(n, h1), h2) in omega]
    assert np.array_equal(box_rows(M, 2, S), np.array(brute).reshape(-1, 12))
    assert gowers_set(M, 2, S) == len(brute)


def test_gowers_set_on_a_point_subspace(f5):
    # V = 0: a point c on V(M) gives the single row c | 0 | .. | 0 and a
    # point off V(M) gives no rows, checked at every c of F_5^3
    M = QuadForm.dot_form(f5, 3, radius=1)
    for c in all_points(5, 3).tolist():
        point = AffineSubspace(f5, [], c)
        for s in (0, 1, 2, 3):
            brute = [c + [0] * (3 * s)] if M.evaluate(c) == 0 else []
            rows = box_rows(M, s, point)
            assert rows.shape == (len(brute), 3 * (s + 1)) and rows.tolist() == brute
            assert gowers_set(M, s, point) == len(brute)
            rep = gowers_count_report(M, s, point)
            assert rep.exact == len(brute) and rep.main_term == Fraction(1, 5 ** (s * (s + 1) // 2 + 1))


def test_box1_on_a_subspace_with_keys_past_int64(rng):
    # p^d = 97^10 > 2^63: the walk orders its candidates by Python-int keys;
    # Box_1 of any set is every (n, m - n), lexicographic in (n, m - n)
    p, d = 97, 10
    field = PrimeField(p)
    M = QuadForm.dot_form(field, d, radius=3)
    basis = [[rng.randrange(p) for _ in range(d)] for _ in range(2)]
    S = AffineSubspace(field, basis, [rng.randrange(p) for _ in range(d)])
    zeros = enumerate_zeros(M, S).tolist()
    brute = sorted(n + [(b - a) % p for a, b in zip(n, m)] for n in zeros for m in zeros)
    assert len(zeros) > 10 and box_rows(M, 1, S).tolist() == brute


def test_vmh_count_report_rejects_shifts_of_the_wrong_length(f5, monkeypatch):
    def never(*args):
        raise AssertionError("counted before the shifts were checked")

    monkeypatch.setattr(counting, "_zero_set_class", never)
    with pytest.raises(MalformedInput, match="length d = 5"):
        vmh_count_report(QuadForm.dot_form(f5, 5, radius=1), [[1, 2, 3]])


def test_root_sum_matches_the_former_formulas(rng):
    # the helper replaced two formulas; both must give the same bits
    import cmath

    from spherefp.counting import root_sum

    for p in (5, 7, 11, 13):
        for _ in range(20):
            counts = [rng.randrange(0, 50) for _ in range(p)]
            table = [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]
            tabled = complex(
                math.fsum(c * table[t].real for t, c in enumerate(counts)),
                math.fsum(c * table[t].imag for t, c in enumerate(counts)),
            )
            trig = complex(
                math.fsum(c * math.cos(2 * math.pi * t / p) for t, c in enumerate(counts)),
                math.fsum(c * math.sin(2 * math.pi * t / p) for t, c in enumerate(counts)),
            )
            got = root_sum(np.array(counts), p)
            assert got == tabled and got == trig
            assert root_sum(counts, p) == got


# -- point-by-point references for the whole-space scans ---------------------


def reference_zeros(M):
    """V(M) point by point: all of [p]^d through eval_array, lex order."""
    pts = all_points(M.p, M.d)
    return pts[M.eval_array(pts) == 0]


def kernel_forms(field, d, rng):
    """Random forms, a degenerate one (rank <= 1) and the two zero forms."""
    p = field.p
    forms = [random_form(field, d, rng) for _ in range(2)]
    a = [rng.randrange(p) for _ in range(d)]
    rank1 = [[a[i] * a[j] % p for j in range(d)] for i in range(d)]
    forms.append(QuadForm(field, rank1, [rng.randrange(p) for _ in range(d)], rng.randrange(p)))
    zero = [[0] * d for _ in range(d)]
    forms += [QuadForm(field, zero), QuadForm(field, zero, None, 1)]
    return forms


def test_enumerate_zeros_matches_point_by_point_reference(rng):
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for d in range(1, 6):
            for M in kernel_forms(field, d, rng):
                got, want = enumerate_zeros(M), reference_zeros(M)
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want)
            # the last kernel form is the nonzero constant 1: V(M) is empty
            assert got.shape == (0, d)


# -- the line solver behind enumerate_zeros ---------------------------------------
# On the line through x' along the last axis M is a t^2 + b(x') t + c(x'),
# with a = A[d-1][d-1], b = 2 A[d-1][:d-1] . x' + u[d-1] and c = M(x', 0).


@st.composite
def line_forms(draw):
    """A form at p in {5, 7, 11, 13}, d in 1..5, whose last axis takes one of
    the solver's branches: a != 0 (lines with 0, 1 and 2 roots), a = 0 with
    b not identically 0, or b = 0 on every line, with c = 0 on some lines
    (all p roots there) or on none."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("quadratic", "linear", "flat", "zero", "constant")))
    elem = st.integers(0, p - 1)
    a = [[0] * d for _ in range(d)]
    if kind not in ("zero", "constant"):
        for i in range(d - 1):
            for j in range(i, d - 1):
                a[i][j] = a[j][i] = draw(elem)
    u = [draw(elem) for _ in range(d - 1)] + [0]
    v = draw(elem)
    if kind == "quadratic":
        a[d - 1][d - 1] = draw(st.integers(1, p - 1))
        for j in range(d - 1):
            a[d - 1][j] = a[j][d - 1] = draw(elem)
        u[d - 1] = draw(elem)
    elif kind == "linear":
        for j in range(d - 1):
            a[d - 1][j] = a[j][d - 1] = draw(elem)
        u[d - 1] = draw(st.integers(1, p - 1))
    elif kind == "zero":
        u, v = [0] * d, 0
    elif kind == "constant":
        u, v = [0] * d, draw(st.integers(1, p - 1))
    return QuadForm(PrimeField(p), a, u, v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(line_forms())
def test_enumerate_zeros_solver_matches_reference(M):
    got, want = enumerate_zeros(M), reference_zeros(M)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(line_forms())
def test_first_zero_solves_the_lines_up_to_the_first_root(M):
    # the first row of the line solver, or None on an empty V(M), with the
    # budget charged p points a line for the blocks of prefixes solved: the
    # block ends fall at prefix 1 and at (q + 1) p^j, q = 1..p-1
    p, d = M.p, M.d
    want = reference_zeros(M)
    if len(want):
        first = tuple(map(int, want[0]))
        prefix = sum(x * p ** (d - 2 - k) for k, x in enumerate(first[:-1]))
        ends = {1} | {(q + 1) * p**j for j in range(d - 1) for q in range(1, p)}
        charge = p * min(e for e in ends if e > prefix)
    else:
        first, charge = None, p**d
    assert counting.first_zero(M) == first
    assert counting.first_zero(M, charge) == first
    with pytest.raises(BudgetExceeded, match=rf"^enumeration of size {charge} exceeds budget {charge - 1}$"):
        counting.first_zero(M, charge - 1)


def line_root_counts(M):
    """The number of roots on each line, in prefix order."""
    p, d = M.p, M.d
    counts = np.zeros(p ** (d - 1), dtype=np.int64)
    prefixes = reference_zeros(M)[:, : d - 1]
    np.add.at(counts, (prefixes * p ** np.arange(d - 2, -1, -1)).sum(axis=1), 1)
    return counts


@pytest.mark.parametrize(
    "A, u, v, counts",
    [
        # a != 0: t^2 = x^2 + 1 has 2, 0, 1, 1, 0 roots at x = 0..4
        ([[4, 0], [0, 1]], [0, 0], 4, {0, 1, 2}),
        # a = 0, b = 2x + 1 vanishes only at x = 2, where c = x + 3 = 0
        ([[0, 1], [1, 0]], [1, 1], 3, {1, 5}),
        # a = 0, b = 2x + 1 vanishes at x = 2, where c = x = 2 != 0
        ([[0, 1], [1, 0]], [1, 1], 0, {0, 1}),
        # b = 0 on every line: c = x^2 - 1 is 0 at x = 1, 4 only
        ([[1, 0], [0, 0]], [0, 0], 4, {0, 5}),
    ],
)
def test_enumerate_zeros_solver_branches(f5, A, u, v, counts):
    M = QuadForm(f5, A, u, v)
    assert set(line_root_counts(M).tolist()) == counts
    assert np.array_equal(enumerate_zeros(M), reference_zeros(M))


@pytest.mark.parametrize(
    "p, A, u, v",
    [
        (2097169, [[2097168]], [2097167], 2097166),
        (2097169, [[1]], [0], 2097168),  # t^2 = 1: t = 1 and p - 1
        (2097169, [[0]], [2097168], 2097167),  # a = 0: one root
        (10007, [[10006, 10005], [10005, 10004]], [10003, 10002], 10001),
        (10007, [[10006, 10005], [10005, 0]], [10003, 10002], 10001),  # a = 0
    ],
)
def test_enumerate_zeros_stays_exact_at_large_p(p, A, u, v):
    # every product of two residues reaches about p^2 and 4ac about 4 p^2
    M = QuadForm(PrimeField(p), A, u, v)
    d = M.d
    got = enumerate_zeros(M, None, budget=p**d)  # 10007^2 is past the default
    assert got.dtype == np.int64 and got.shape[1] == d
    # sound: every row is a zero, exactly; strictly increasing, so no repeats
    assert all(M.evaluate(row) == 0 for row in got.tolist())
    rows = [tuple(row) for row in got.tolist()]
    assert rows == sorted(set(rows))
    # complete on whole lines: at d = 1 the only line, else the extreme
    # prefixes and a spread of others, each scanned point by point
    t = np.arange(p, dtype=np.int64)
    prefixes = [()] if d == 1 else [(x,) for x in (0, 1, p - 2, p - 1, *range(5, p, p // 40))]
    for x in prefixes:
        line = np.column_stack([np.full((p, d - 1), x, dtype=np.int64), t])
        want = line[M.eval_array(line) == 0]
        assert np.array_equal(got[(got[:, : d - 1] == x).all(axis=1)], want)


def test_enumerate_zeros_budget_boundary(rng):
    for p, d in ((5, 3), (7, 4), (13, 2)):
        M = random_form(PrimeField(p), d, rng)
        assert np.array_equal(enumerate_zeros(M, None, budget=p**d), reference_zeros(M))
        with pytest.raises(BudgetExceeded):
            enumerate_zeros(M, None, budget=p**d - 1)
        # on V + c the budget is p^k, k = dim V
        S = AffineSubspace(PrimeField(p), np.eye(d, dtype=int)[: d - 1].tolist(), [1] * d)
        assert np.array_equal(enumerate_zeros(M, S, budget=p ** (d - 1)), enumerate_zeros(M, S))
        with pytest.raises(BudgetExceeded):
            enumerate_zeros(M, S, budget=p ** (d - 1) - 1)


def test_quadratic_root_count_matches_point_by_point_reference(rng):
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        squares = {x * x % p for x in range(p)}
        for d in (2, 3, 4):
            M = random_form(field, d, rng, min_rank=2)
            vals = M.eval_array(all_points(p, d))
            assert quadratic_root_count(M).exact == sum(int(v) in squares for v in vals)


def test_vmh_count_report_matches_point_by_point_reference(monkeypatch, rng):
    # the closed form, which enumerates nothing, against V(M) filtered by
    # each shifted form, one point at a time; at d = 7 with two random
    # shifts L_h has codimension 2
    def never(*args, **kwargs):
        raise AssertionError("vmh_count_report enumerated V(M)")

    monkeypatch.setattr(counting, "enumerate_zeros", never)
    cases = ((5, 5, [(1, 2, 0, 0, 4)]), (7, 5, [(0, 3, 1, 1, 0)]), (7, 4, []), (11, 3, []))
    cases += tuple((p, 7, "random") for p in (5, 7))
    for p, d, shifts in cases:
        field = PrimeField(p)
        M = random_form(field, d, rng, min_rank=d)
        if shifts == "random":
            while True:
                shifts = [[rng.randrange(p) for _ in range(d)] for _ in range(2)]
                if mat_rank(FpMatrix(field, shifts)) == 2:
                    break
        want = reference_zeros(M)
        for h in shifts:
            want = want[M.shifted(list(h)).eval_array(want) == 0]
        assert vmh_count_report(M, shifts).exact == len(want)


def test_counts_answer_past_the_enumeration_budget():
    # closed forms take no budget: on the sphere of F_13^8 (13^8 = 815,730,721
    # points against the default budget of 10^8) the zero count and the
    # count on V(M) n V(M(. + e_1)) = V(M) n {2 n_1 + 1 = 0} answer, against
    # Lidl-Niederreiter: sum_i n_i^2 = 1 in 8 variables, and
    # sum_{i >= 2} n_i^2 = 1 - 1/4 in 7 once n_1 = -1/2
    field = PrimeField(13)
    M = QuadForm.dot_form(field, 8, radius=1)
    assert zero_count_check(M).exact == lidl_niederreiter_count(13, [1] * 8, 1, 8)
    rep = vmh_count_report(M, [[1, 0, 0, 0, 0, 0, 0, 0]])
    assert rep.exact == lidl_niederreiter_count(13, [1] * 7, 3 * field.inv(4), 7) == 4829006
    # |Box_2| of the sphere in 15 variables at p = 5 (5^15 points)
    rep = gowers_count_report(QuadForm.dot_form(PrimeField(5), 15, 1), 2)
    assert rep.exact == 45477063499392127990722656250


def test_gowers_blocks_corner_masks_match_shifted_forms(f5, rng):
    # at s = 1 the block of n holds every h of the direction space V with
    # M(n + h) = 0, checked against the shifted form on all of V, for every
    # n of V(M) n (V + c): on F_p^d and on subspaces of each dimension
    from spherefp.counting import gowers_blocks

    for d in (3, 4):
        for M in [QuadForm.dot_form(f5, d, radius=1)] + kernel_forms(f5, d, rng)[:3]:
            zeros = enumerate_zeros(M)
            point = zeros[0].tolist() if len(zeros) else [0] * d
            subspaces = [None, AffineSubspace(f5, [], point)]
            for k in range(1, d):
                while True:
                    basis = [[rng.randrange(5) for _ in range(d)] for _ in range(k)]
                    if mat_rank(FpMatrix(f5, basis)) == k:
                        break
                subspaces.append(AffineSubspace(f5, basis, [rng.randrange(5) for _ in range(d)]))
            for S in subspaces:
                space = all_points(5, d)
                if S is not None:  # the direction space V
                    space = space[on_subspace(space, AffineSubspace(f5, S.basis, [0] * d))]
                blocks = list(gowers_blocks(M, 1, S))
                starts = np.array([n for (n,), _, _ in blocks], dtype=np.int64).reshape(-1, d)
                assert np.array_equal(starts, enumerate_zeros(M, S))
                for (n,), H, _ in blocks:
                    assert np.array_equal(H, space[M.shifted(n.tolist()).eval_array(space) == 0])

# -- subspace input is checked at the entry ----------------------------------------


def test_affine_subspace_rejects_a_mismatched_offset_and_an_empty_ambient():
    with pytest.raises(MalformedInput, match="offset of length 2 for basis vectors of length 3"):
        AffineSubspace(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0])
    with pytest.raises(MalformedInput, match="offset of length 4"):
        AffineSubspace(F5, [[1, 0, 0]], [0, 0, 0, 0])
    for offset in (None, []):
        with pytest.raises(MalformedInput, match="empty basis needs an offset"):
            AffineSubspace(F5, [], offset)
    point = AffineSubspace(F5, [], [1, 0, 0])  # a point subspace stays valid
    assert (point.dim_ambient, point.dim()) == (3, 0)
    assert AffineSubspace(F5, [[1, 0, 0]]).offset == [0, 0, 0]


def test_a_subspace_of_another_ambient_dimension_is_refused_before_any_work(monkeypatch):
    wide = AffineSubspace(F5, [[1, 0, 0, 0]], [0, 0, 0, 0])

    def never(*args, **kwargs):
        raise AssertionError("work started on a mismatched subspace")

    monkeypatch.setattr(counting, "_solve_zeros", never)
    for call in (
        lambda: enumerate_zeros(SPHERE3, wide),
        lambda: gowers_set(SPHERE3, 1, wide),
        lambda: gowers_count_report(QuadForm.dot_form(F5, 3, 1), 1, wide),
        lambda: enumerate_zeros(QuadForm.dot_form(F5, 5, 1), PLANE),
    ):
        with pytest.raises(MalformedInput, match="subspace of F_p\\^"):
            call()


def test_a_subspace_over_another_prime_is_refused_before_any_work(monkeypatch):
    # an F_7 offset coordinate 6 would come back as a row outside [0, 5)^3
    other = AffineSubspace(PrimeField(7), [[1, 0, 0], [0, 1, 0]], [0, 0, 6])

    def never(*args, **kwargs):
        raise AssertionError("work started on a subspace over another prime")

    monkeypatch.setattr(counting, "_solve_zeros", never)
    for call in (
        lambda: enumerate_zeros(QuadForm.dot_form(F5, 3, 1), other),
        lambda: gowers_set(QuadForm.dot_form(F5, 3, 1), 1, other),
        lambda: gowers_count_report(QuadForm.dot_form(F5, 3, 1), 1, other),
    ):
        with pytest.raises(MalformedInput, match="subspace over F_7 for a form over F_5"):
            call()


@pytest.mark.parametrize("delta", [float("nan"), -1, 0, 1.5, 2])
def test_one_delta_rule_at_every_entry_point(monkeypatch, rng, delta):
    # counting._check_delta is the one rule: the three equidist entry points,
    # the dichotomy and the irreducibility probe refuse delta outside (0, 1]
    # before any work, with the same message; at delta = 2 the dichotomy used
    # to answer "small" and at nan or -1 to raise "middle ground"
    from spherefp import division, equidist, msets
    from spherefp.fpoly import RatMultiPoly
    from spherefp.msets import MQuadFn

    def never(*args, **kwargs):
        raise AssertionError("work started before the delta check")

    M = QuadForm.dot_form(F5, 3, radius=1)
    family = [MQuadFn(M, 1, {(1, 1): 1}, [M.u[:]], M.v)]
    g = equidist.TorusPolySeq(3, 1, 1, {(1, 0, 0): (Fraction(1, 5),)})
    monkeypatch.setattr(division, "qf_rank", never)
    monkeypatch.setattr(msets, "_reduced_rows", never)
    monkeypatch.setattr(equidist, "frequency_count", never)
    monkeypatch.setattr(equidist, "sphere_points", never)
    calls = [
        lambda: division.dichotomy(FpMultiPoly.variable(5, 3, 0), M, delta),
        lambda: msets.irreducibility_probe(family, M, 1, 2, delta, 3, rng),
        lambda: equidist.equidist_test(g, [(0, 0, 1)], delta, 2),
        lambda: equidist.weyl_dichotomy(RatMultiPoly.variable(3, 0), 5, 1, delta),
        lambda: equidist.leibman_probe(5, 4, 1, 2, delta, 3, 20, rng),
    ]
    for call in calls:
        with pytest.raises(MalformedInput) as err:
            call()
        assert str(err.value) == f"delta must lie in (0, 1], got {delta}"
    with pytest.raises(MalformedInput) as err:
        counting._check_delta(delta, "--delta")
    assert str(err.value) == f"--delta must lie in (0, 1], got {delta}"
