import itertools
import random

import pytest

from spherefp import counting
from spherefp.counting import all_points
from spherefp.ffcore import FpMatrix, PrimeField, rank as mat_rank
from spherefp.quadform import (
    AffineSubspace,
    HypothesisFailed,
    QuadForm,
    RankHypothesisFailed,
    find_nonisotropic,
    gram_matrix,
    isotropic_test,
    normalize,
    parallel_certificate,
    perp,
    qf_rank,
    restricted_rank,
)

from conftest import random_form, random_symmetric


def test_rank_examples(f5):
    assert qf_rank(QuadForm.dot_form(f5, 3)) == 3
    assert qf_rank(QuadForm(f5, [[0, 0], [0, 0]])) == 0
    assert qf_rank(QuadForm(f5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])) == 2


def test_normalize_dot_form(f5):
    cert = normalize(QuadForm.dot_form(f5, 3))
    assert cert.c == 1 and cert.dprime == 3 and cert.cprime == 0 and cert.lam == 0
    assert cert.R == FpMatrix.identity(f5, 3)
    assert cert.verify()


def test_normalize_hyperbolic(f5):
    # M(n1, n2) = n1 n2 has matrix [[0, 3], [3, 0]] (2 * 3 = 1 mod 5)
    cert = normalize(QuadForm(f5, [[0, 3], [3, 0]]))
    assert cert.dprime == 2
    assert cert.verify()


def test_normalize_constant(f5):
    cert = normalize(QuadForm(f5, [[0, 0], [0, 0]], None, 2))
    assert cert.dprime == 0 and cert.lam == (-2) % 5
    assert cert.verify()


def test_normalize_randomized():
    # certificate identity holds symbolically for 200 random forms per
    # (p, d), p <= 13, d <= 6
    rng = random.Random(10)
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for d in range(1, 7):
            for _ in range(200):
                M = random_form(field, d, rng)
                cert = normalize(M)
                assert cert.verify()
                assert cert.dprime == qf_rank(M)
                assert cert.c != 0


def test_normalize_special_shapes():
    rng = random.Random(11)
    for p in (5, 7):
        field = PrimeField(p)
        for _ in range(60):
            M = random_form(field, 4, rng, homogeneous=True)
            cert = normalize(M)
            assert cert.cprime == 0 and cert.lam == 0
            Mp = random_form(field, 4, rng, pure=True)
            certp = normalize(Mp)
            assert certp.shift == [0, 0, 0, 0]
            Mn = random_form(field, 4, rng, min_rank=4)
            assert normalize(Mn).dprime == 4


def test_or_lemma_exhaustive():
    # M(x) = M(x+y) = M(x+z) = 0 implies: M(x+y+z) = 0 iff (yA) . z = 0,
    # exhaustively over all (x, y, z) at p = 5, d = 3 and 4
    import numpy as np

    for p, d in ((5, 3), (5, 4)):
        field = PrimeField(p)
        rng = random.Random(p * d)
        M = random_form(field, d, rng, min_rank=3)
        pts = all_points(p, d)
        vals = M.eval_array(pts)
        zeros = pts[vals == 0]
        a = np.array(M.A.rows, dtype=np.int64)
        checked = 0
        for x in zeros:
            shifted = M.shifted([int(v) for v in x])
            good = pts[shifted.eval_array(pts) == 0]  # y with M(x + y) = 0
            zcands = good  # z runs over the same set by symmetry
            vals_xyz = shifted.eval_array((zcands[None, :, :] + good[:, None, :]).reshape(-1, d) % p)
            lhs = (vals_xyz.reshape(len(good), len(zcands)) == 0)
            gram = (good @ a @ zcands.T) % p
            rhs = gram == 0
            assert (lhs == rhs).all()
            checked += lhs.size
        assert checked > 0


def test_perp_examples(f5):
    M = QuadForm.dot_form(f5, 3)
    full = perp(M, [])
    assert len(full) == 3
    assert perp(M, AffineSubspace.full_space(f5, 3).basis) == []
    plane = perp(M, [[1, 2, 0]])
    assert len(plane) == 2
    for b in plane:
        assert (b[0] + 2 * b[1]) % 5 == 0


def test_double_perp(rng):
    for p in (5, 7):
        field = PrimeField(p)
        for _ in range(30):
            M = random_form(field, 4, rng, min_rank=4)
            dim = rng.randint(1, 3)
            vecs = []
            while len(vecs) < dim:
                v = [rng.randrange(p) for _ in range(4)]
                if mat_rank(FpMatrix(field, vecs + [v])) == len(vecs) + 1:
                    vecs.append(v)
            w = perp(M, vecs)
            back = perp(M, w) if w else perp(M, [])
            span_original = FpMatrix(field, vecs)
            for b in back:
                assert mat_rank(FpMatrix(field, vecs + [b])) == mat_rank(span_original)


def test_isotropic_examples(f5):
    M2 = QuadForm.dot_form(f5, 2)
    assert isotropic_test(M2, [[1, 2]])  # 1 + 4 = 0 mod 5
    M3 = QuadForm.dot_form(f5, 3)
    assert not isotropic_test(M3, [[1, 0, 0]])
    assert isotropic_test(M3, [[0, 0, 0], [1, 0, 0]])


def test_restricted_rank_examples(f5):
    M = QuadForm.dot_form(f5, 3)
    assert restricted_rank(M, AffineSubspace.full_space(f5, 3)) == qf_rank(M)
    # (1,2,0) is isotropic mod 5 (1 + 4 = 0) and lies in its own perp plane,
    # so the pullback rank drops to 3 - 1 - 1 = 1 by the dim(V cap V^perp)
    # formula; a direct parametrization gives 10 s^2 + t^2 = t^2 mod 5.
    V = perp(M, [[1, 2, 0]])
    assert restricted_rank(M, AffineSubspace(f5, V)) == 1
    # a non-isotropic direction keeps the restriction non-degenerate
    W = perp(M, [[1, 0, 0]])
    assert restricted_rank(M, AffineSubspace(f5, W)) == 2


def test_restricted_rank_formula_and_bounds(rng):
    # rank(M|_{V+c}) = d - r - dim(V cap V^perp), between rank(M) - 2r and d - r
    for p in (5, 7):
        field = PrimeField(p)
        for _ in range(40):
            d = 4
            M = random_form(field, d, rng, min_rank=3)
            k = rng.randint(1, 3)
            vecs = []
            while len(vecs) < k:
                v = [rng.randrange(p) for _ in range(d)]
                if mat_rank(FpMatrix(field, vecs + [v])) == len(vecs) + 1:
                    vecs.append(v)
            S = AffineSubspace(field, vecs, [rng.randrange(p) for _ in range(d)])
            r = S.codim()
            got = restricted_rank(M, S)
            # dim(V cap V^perp) via rank computation
            wbasis = perp(M, vecs)
            stack = vecs + wbasis
            dim_sum = mat_rank(FpMatrix(field, stack)) if stack else 0
            dim_cap = len(vecs) + len(wbasis) - dim_sum
            assert got == d - r - dim_cap
            assert got <= d - r
            assert got >= qf_rank(M) - 2 * r


def test_restricted_rank_parametrization_invariance(rng):
    field = PrimeField(7)
    M = random_form(field, 4, rng, min_rank=4)
    vecs = [[1, 0, 0, 0], [0, 1, 0, 0]]
    S1 = AffineSubspace(field, vecs)
    # re-parametrize the same plane
    vecs2 = [[1, 1, 0, 0], [3, 2, 0, 0]]
    S2 = AffineSubspace(field, vecs2)
    assert restricted_rank(M, S1) == restricted_rank(M, S2)


def test_cbn_lemma(rng):
    # rank(M|_{V^perp}) = d - r implies rank(M|_{(V+V')^perp}) >= d - r - 2r'
    field = PrimeField(7)
    d = 5
    tried = 0
    while tried < 25:
        M = random_form(field, d, rng, min_rank=d)
        r, rp = rng.randint(1, 2), rng.randint(1, 2)
        vecs = []
        while len(vecs) < r + rp:
            v = [rng.randrange(7) for _ in range(d)]
            if mat_rank(FpMatrix(field, vecs + [v])) == len(vecs) + 1:
                vecs.append(v)
        V, Vp = vecs[:r], vecs[r:]
        wb = perp(M, V)
        if restricted_rank(M, AffineSubspace(field, wb)) != d - r:
            continue
        tried += 1
        both = perp(M, V + Vp)
        if both:
            got = restricted_rank(M, AffineSubspace(field, both))
            assert got >= d - r - 2 * rp


def test_find_nonisotropic(rng):
    field = PrimeField(7)
    M = random_form(field, 5, rng, min_rank=5)
    assert find_nonisotropic(M, 0) == []
    for k in (1, 2, 3):
        basis = find_nonisotropic(M, k)
        assert len(basis) == k
        assert not isotropic_test(M, basis)
        assert mat_rank(gram_matrix(M, basis)) == k
    with pytest.raises(RankHypothesisFailed):
        find_nonisotropic(M, 6)


def test_parallel_certificate(f5):
    d = 3
    A = FpMatrix.identity(f5, d)
    W = [list(w) for w in itertools.product(range(5), repeat=d)]
    B = FpMatrix(f5, [[3 if i == j else 0 for j in range(d)] for i in range(d)])
    assert parallel_certificate(A, B, [0] * d, W, f5) == 3

    # B = A + E11 breaks the hypothesis
    Bbad = FpMatrix(f5, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(HypothesisFailed) as info:
        parallel_certificate(A, Bbad, [0] * d, W, f5)
    n, w = info.value.witness
    naw = A.matvec(list(w))
    assert sum(n[i] * naw[i] for i in range(d)) % 5 == 0
    nb = Bbad.vecmat(list(n))
    assert sum(nb[i] * w[i] for i in range(d)) % 5 != 0

    # v != 0 with B = A also yields a witness
    with pytest.raises(HypothesisFailed) as info:
        parallel_certificate(A, A, [1, 0, 0], W, f5)
    n, w = info.value.witness
    naw = A.matvec(list(w))
    assert sum(n[i] * naw[i] for i in range(d)) % 5 == 0
    nb = A.vecmat(list(n))
    assert (sum(nb[i] * w[i] for i in range(d)) + w[0]) % 5 != 0


def test_parallel_certificate_rank_gate(f5):
    A = FpMatrix(f5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(RankHypothesisFailed):
        parallel_certificate(A, A, [0, 0, 0], [[1, 1, 1]], f5)
    # one rank exception, still importable from counting
    assert counting.RankHypothesisFailed is RankHypothesisFailed


def test_quadform_json_roundtrip(f5, rng):
    M = random_form(f5, 3, rng)
    M2 = QuadForm.from_json(M.to_json())
    assert M2.A == M.A and M2.u == M.u and M2.v == M.v


def test_parallel_certificate_meters_nothing():
    # the caller passes W and a witness comes from a null space, so nothing
    # is enumerated and no budget applies, at p^d = 13^8 > 1e7 too
    f13 = PrimeField(13)
    d = 8
    A = FpMatrix.identity(f13, d)
    W = [[1] * d]
    assert parallel_certificate(A, A, [0] * d, W, f13) == 1
    Bbad = FpMatrix(f13, [[2 if i == j == 0 else int(i == j) for j in range(d)] for i in range(d)])
    with pytest.raises(HypothesisFailed) as info:
        parallel_certificate(A, Bbad, [0] * d, W, f13)
    n, w = info.value.witness
    assert tuple(w) == (1,) * d
    naw = A.matvec(list(w))
    assert sum(n[i] * naw[i] for i in range(d)) % 13 == 0
    nb = Bbad.vecmat(list(n))
    assert sum(nb[i] * w[i] for i in range(d)) % 13 != 0


def test_normalize_degenerate_linear_tail(f5):
    # rank 2 block plus a linear form on the kernel coordinates: the
    # normalization collapses the tail to a single c' coordinate
    M = QuadForm(f5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [0, 0, 2, 3], 1)
    cert = normalize(M)
    assert cert.dprime == 2 and cert.cprime == 1
    assert cert.verify()
    # fully degenerate: only a linear form
    M2 = QuadForm(f5, [[0, 0], [0, 0]], [1, 2], 0)
    cert2 = normalize(M2)
    assert cert2.dprime == 0 and cert2.cprime == 1 and cert2.verify()


def test_composed_on_a_point_is_the_constant_form(rng):
    # an empty basis pulls M back to the form in 0 variables, whose constant
    # is M at the offset; it used to raise a dimension mismatch
    for p in (5, 7, 13):
        field = PrimeField(p)
        for d in (1, 3, 5):
            M = random_form(field, d, rng)
            c = [rng.randrange(p) for _ in range(d)]
            N = M.composed([], c)
            assert (N.d, N.u, N.v) == (0, [], M.evaluate(c))
            assert N.A.rows == [] and M.composed([]).v == M.v
