import random
from fractions import Fraction

import numpy as np
import pytest

from spherefp import fpoly
from spherefp.fpoly import (
    ArityMismatch,
    FpMultiPoly,
    NotIntegerValued,
    RatMultiPoly,
    TauIota,
    ValueRangeError,
    induce,
    is_p_periodic,
    is_partially_p_periodic_on,
    p_expand,
    regular_lift,
)

from conftest import random_fp_poly, random_int_valued, random_rat_poly, random_zp_valued


def test_evaluate_examples():
    assert RatMultiPoly.zero(2).evaluate([7, -3]) == 0
    assert FpMultiPoly(5, 1, {(2,): 1}).evaluate([3]) == 4
    half = RatMultiPoly(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert half.evaluate([7]) == 28


def test_delta_examples():
    sq = RatMultiPoly(1, {(2,): 1})
    assert sq.delta([1]) == RatMultiPoly(1, {(1,): 2, (0,): 1})
    assert RatMultiPoly.constant(1, 9).delta([4]).is_zero()
    cube = RatMultiPoly(1, {(3,): 1})
    assert cube.delta([2]) == RatMultiPoly(1, {(2,): 6, (1,): 12, (0,): 8})


def test_delta_commutes_with_shift(rng):
    for _ in range(40):
        f = random_rat_poly(2, 3, rng)
        h = [rng.randint(-3, 3), rng.randint(-3, 3)]
        a = [rng.randint(-3, 3), rng.randint(-3, 3)]
        assert f.shift(a).delta(h) == f.delta(h).shift(a)


def test_binomial_coeffs_examples():
    sq = RatMultiPoly(1, {(2,): 1})
    assert sq.binomial_coeffs() == {(2,): 2, (1,): 1}
    assert RatMultiPoly.constant(1, 7).binomial_coeffs() == {(0,): 7}
    cube = RatMultiPoly(1, {(3,): 1})
    assert cube.binomial_coeffs() == {(3,): 6, (2,): 6, (1,): 1}


def test_binomial_roundtrip_and_integrality(rng):
    for _ in range(60):
        f = random_rat_poly(2, 4, rng)
        coeffs = f.binomial_coeffs()
        assert RatMultiPoly.from_binomial(2, coeffs) == f
        # integer valued iff integral binomial coefficients, cross-checked
        # by evaluation on a grid
        if f.is_integer_valued():
            for x in range(-3, 4):
                for y in range(-3, 4):
                    assert f.evaluate([x, y]).denominator == 1


def test_induce_examples():
    assert induce(RatMultiPoly(1, {(1,): Fraction(2, 5)}), 5) == FpMultiPoly(5, 1, {(1,): 2})
    assert induce(RatMultiPoly.zero(1), 5).is_zero()
    f = RatMultiPoly(1, {(2,): Fraction(1, 5), (1,): 1})
    assert induce(f, 5) == FpMultiPoly(5, 1, {(2,): 1})


def test_induce_rejects_non_zp_valued():
    with pytest.raises(ValueRangeError):
        induce(RatMultiPoly(1, {(1,): Fraction(1, 25)}), 5)


def test_regular_lift_examples():
    assert regular_lift(FpMultiPoly(5, 1, {(1,): 2})) == RatMultiPoly(1, {(1,): Fraction(2, 5)})
    assert regular_lift(FpMultiPoly.zero(5, 1)).is_zero()
    F = FpMultiPoly(7, 1, {(2,): 1})
    lift = regular_lift(F)
    assert lift == RatMultiPoly(1, {(2,): Fraction(1, 7)})
    assert induce(lift, 7) == F


def test_lift_roundtrip_randomized(rng):
    for p in (5, 7, 11, 13):
        for _ in range(50):
            F = random_fp_poly(p, 2, 4, rng)
            f = regular_lift(F)
            assert induce(f, p) == F
            assert all(0 <= c < 1 and c.denominator in (1, p) for c in f.terms.values())


def test_p_expand_examples():
    f = RatMultiPoly(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})
    f1, f2 = p_expand(f, 5)
    assert f1 == RatMultiPoly(1, {(2,): Fraction(-1, 2), (1,): Fraction(-1, 2)})
    assert f2 == RatMultiPoly(1, {(2,): 3, (1,): 3})
    assert f.scale(Fraction(1, 5)) == f1 + f2.scale(Fraction(1, 5))

    f1, f2 = p_expand(RatMultiPoly.constant(1, 5), 5)
    assert f1 == RatMultiPoly.constant(1, 1) and f2.is_zero()

    f1, f2 = p_expand(RatMultiPoly(1, {(1,): 1}), 5)
    assert f1.is_zero() and f2 == RatMultiPoly(1, {(1,): 1})


def test_p_expand_randomized(rng):
    for p in (5, 7, 11):
        for _ in range(40):
            f = random_int_valued(2, 3, rng)
            f1, f2 = p_expand(f, p)
            assert f.scale(Fraction(1, p)) == f1 + f2.scale(Fraction(1, p))
            assert f1.is_integer_valued() and f2.is_integer_coefficient()
            assert f1.degree() <= f.degree() and f2.degree() <= f.degree()


def test_p_expand_rejects():
    with pytest.raises(NotIntegerValued):
        p_expand(RatMultiPoly(1, {(1,): Fraction(1, 3)}), 5)


def test_p_periodicity():
    assert is_p_periodic(RatMultiPoly(1, {(2,): Fraction(1, 5)}), 5)
    assert not is_p_periodic(RatMultiPoly(1, {(1,): Fraction(1, 25)}), 5)
    assert is_p_periodic(RatMultiPoly(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)}), 5)


def test_every_degree_below_p_zp_poly_is_periodic(rng):
    # Z/p-valued of degree < p is always p-periodic
    for p in (5, 7):
        for _ in range(30):
            f = random_zp_valued(2, 3, rng, p)
            assert is_p_periodic(f, p)


def test_partial_periodicity_examples():
    # ((n.n - r)/p)^2 is periodic along sphere fibers but not globally
    p, d, r = 5, 3, 1
    m = RatMultiPoly(
        d,
        {
            (2, 0, 0): Fraction(1, p),
            (0, 2, 0): Fraction(1, p),
            (0, 0, 2): Fraction(1, p),
            (0, 0, 0): Fraction(-r, p),
        },
    )
    g = m * m
    sphere = [
        (x, y, z)
        for x in range(p)
        for y in range(p)
        for z in range(p)
        if (x * x + y * y + z * z) % p == r
    ]
    assert is_partially_p_periodic_on(g, sphere, p)
    assert not is_p_periodic(g, p)

    assert is_partially_p_periodic_on(RatMultiPoly(1, {(1,): Fraction(1, 5)}), [(0,)], 5)
    assert not is_partially_p_periodic_on(RatMultiPoly(1, {(1,): Fraction(1, 25)}), [(0,)], 5)


def test_tau_iota_roundtrip():
    ti = TauIota(7)
    for a in range(7):
        assert ti.iota(ti.tau(a)) == a
    for n in range(-10, 30):
        assert (ti.tau(ti.iota(n)) - n) % 7 == 0
    assert ti.iota(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ValueRangeError):
        ti.iota(Fraction(1, 7))


def test_json_roundtrip(rng):
    f = random_rat_poly(3, 3, rng)
    assert RatMultiPoly.from_json(f.to_json()) == f
    F = random_fp_poly(7, 3, 3, rng)
    assert FpMultiPoly.from_json(7, F.to_json()) == F


def test_fp_substitution_matches_pointwise(rng):
    p = 5
    for _ in range(20):
        f = random_fp_poly(p, 2, 3, rng)
        b = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        shift = [rng.randrange(p) for _ in range(2)]
        g = f.compose_linear(b, shift)
        for x in range(p):
            for y in range(p):
                image = [(x * b[0][j] + y * b[1][j] + shift[j]) % p for j in range(2)]
                assert g.evaluate([x, y]) == f.evaluate(image)


def test_compose_liftings_gate(rng):
    from spherefp.fpoly import compose_liftings

    Fa = FpMultiPoly(5, 1, {(2,): 1})
    Fb = FpMultiPoly(5, 1, {(2,): 3})
    fa, fb = regular_lift(Fa), regular_lift(Fb)
    comp = compose_liftings(fb, fa, 5)
    assert induce(comp, 5) == Fb.substitute([Fa])
    big = regular_lift(FpMultiPoly(5, 1, {(3,): 1}))
    with pytest.raises(ValueRangeError):
        compose_liftings(big, fa, 5)


def test_p_periodicity_against_brute_force(rng):
    # the symbolic verdict matches direct sampling of f(n + p m) - f(n)
    from conftest import random_rat_poly

    p = 5
    for _ in range(40):
        f = random_rat_poly(2, 3, rng, denominators=(1, 5, 25))
        verdict = is_p_periodic(f, p)
        sampled = True
        for n in [(0, 0), (1, 3), (2, 2), (4, 1)]:
            for m in [(1, 0), (0, 1), (2, 3), (1, 4)]:
                d = f.evaluate([n[0] + p * m[0], n[1] + p * m[1]]) - f.evaluate(list(n))
                sampled &= d.denominator == 1
        # symbolic True certifies the universal statement; sampled False
        # refutes it; they can only disagree when sampling missed a witness
        if verdict:
            assert sampled
        if not sampled:
            assert not verdict


def test_integer_valuedness_criterion_both_directions(rng):
    from conftest import random_rat_poly

    for _ in range(40):
        f = random_rat_poly(2, 3, rng, denominators=(1, 2, 3, 4))
        deg = max(f.degree(), 0)
        box = [(x, y) for x in range(deg + 1) for y in range(deg + 1)]
        box_integral = all(f.evaluate(list(n)).denominator == 1 for n in box)
        if f.is_integer_valued():
            assert box_integral
        else:
            # a fractional binomial coefficient forces a fractional value
            # somewhere in the finite-difference box
            assert not box_integral


# -- batched evaluation ------------------------------------------------------------


def _eval_reference(f, points):
    """f at every row of points, one term at a time: a full column of the
    coefficient, then one mod-p product per unit of exponent."""
    p = f.p
    n = points.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for e, c in f.terms.items():
        v = np.full(n, c, dtype=np.int64)
        for j, k in enumerate(e):
            for _ in range(k):
                v = (v * points[:, j]) % p
        out = (out + v) % p
    return out


def _dense_fp_poly(p, d, s, rng):
    return FpMultiPoly(p, d, {e: rng.randrange(p) for e in fpoly._binom_basis_indices(d, s)})


def _assert_batch_matches_reference(polys, points):
    got = FpMultiPoly.eval_many(polys, points)
    assert got.dtype == np.int64 and got.shape == (len(polys), len(points))
    for f, row in zip(polys, got):
        want = _eval_reference(f, points)
        assert np.array_equal(row, want)
        assert np.array_equal(f.eval_array(points), want)


def _random_points(p, d, n, rng, lo=0, hi=None):
    hi = p - 1 if hi is None else hi
    return np.array([[rng.randint(lo, hi) for _ in range(d)] for _ in range(n)], dtype=np.int64)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_eval_many_matches_per_term_reference(p, rng):
    for d in (1, 3, 5):
        # sparse draws of mixed degree 0..4 next to dense ones of degree 2, 3
        polys = [random_fp_poly(p, d, 4, rng) for _ in range(6)]
        polys += [_dense_fp_poly(p, d, s, rng) for s in (2, 3)]
        rng.shuffle(polys)
        _assert_batch_matches_reference(polys, _random_points(p, d, 150, rng))


@pytest.mark.parametrize("p, d, s", [(2097169, 5, 10), (2147483647, 3, 3)])
def test_eval_many_reduces_products_past_the_float_bound(p, d, s, rng):
    # monomials * (p - 1)^2 >= 2^53, so the exact int64 path runs: with
    # 3003 monomials at p ~ 2^21, and with any number at p ~ 2^31
    polys = [random_fp_poly(p, d, 4, rng) for _ in range(5)] + [_dense_fp_poly(p, d, s, rng)]
    pos, _ = fpoly._monomial_closure(set().union(*(f.terms for f in polys)), d)
    assert len(pos) * (p - 1) ** 2 >= 2**53
    _assert_batch_matches_reference(polys, _random_points(p, d, 60, rng))


def test_eval_many_reduces_coordinates_outside_0_to_p(rng):
    p, d = 7, 3
    polys = [random_fp_poly(p, d, 4, rng) for _ in range(6)]
    points = _random_points(p, d, 200, rng, lo=-3 * p, hi=3 * p)
    assert (points < 0).any() and (points >= p).any()
    _assert_batch_matches_reference(polys, points)
    assert np.array_equal(FpMultiPoly.eval_many(polys, points), FpMultiPoly.eval_many(polys, points % p))


def test_eval_many_zero_and_constant_polynomials(rng):
    p, d = 11, 4
    points = _random_points(p, d, 50, rng)
    zero, const = FpMultiPoly.zero(p, d), FpMultiPoly.constant(p, d, 6)
    _assert_batch_matches_reference([zero, const, random_fp_poly(p, d, 3, rng)], points)
    assert not FpMultiPoly.eval_many([zero], points).any()
    assert (FpMultiPoly.eval_many([const, zero], points) == [[6], [0]]).all()


def test_eval_many_empty_batches():
    points = np.zeros((0, 3), dtype=np.int64)
    polys = [FpMultiPoly.variable(5, 3, j) for j in range(3)]
    assert FpMultiPoly.eval_many(polys, points).shape == (3, 0)
    assert polys[0].eval_array(points).shape == (0,)
    assert FpMultiPoly.eval_many([], np.ones((4, 3), dtype=np.int64)).shape == (0, 4)


@pytest.mark.parametrize("cells", [1, 150, 1000])
def test_eval_many_chunks_keep_every_column(monkeypatch, cells, rng):
    # a cap of a few cells splits the points into chunks of one or a few,
    # with a short last chunk
    p, d = 13, 3
    polys = [random_fp_poly(p, d, 4, rng) for _ in range(5)] + [_dense_fp_poly(p, d, 3, rng)]
    points = _random_points(p, d, 90, rng)
    whole = FpMultiPoly.eval_many(polys, points)
    monkeypatch.setattr(fpoly, "EVAL_CHUNK_CELLS", cells)
    assert np.array_equal(FpMultiPoly.eval_many(polys, points), whole)
    _assert_batch_matches_reference(polys, points)


def test_eval_many_rejects_mixed_polynomials_and_points():
    points = np.zeros((4, 2), dtype=np.int64)
    f = FpMultiPoly.variable(5, 2, 0)
    with pytest.raises(ArityMismatch):
        FpMultiPoly.eval_many([f, FpMultiPoly.variable(7, 2, 0)], points)
    with pytest.raises(ArityMismatch):
        FpMultiPoly.eval_many([f, FpMultiPoly.variable(5, 3, 0)], points)
    with pytest.raises(ArityMismatch):
        FpMultiPoly.eval_many([f], np.zeros((4, 3), dtype=np.int64))
    with pytest.raises(ArityMismatch):
        f.eval_array(np.zeros(4, dtype=np.int64))
