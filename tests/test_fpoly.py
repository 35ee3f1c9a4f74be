import operator
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp import fpoly
from spherefp.fpoly import (
    ArityMismatch,
    FpMultiPoly,
    NotIntegerValued,
    RatMultiPoly,
    ValueRangeError,
    induce,
    is_p_periodic,
    p_expand,
    partial_periodicity_witness,
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
    assert partial_periodicity_witness(g, sphere, p) is None
    assert not is_p_periodic(g, p)

    assert partial_periodicity_witness(RatMultiPoly(1, {(1,): Fraction(1, 5)}), [(0,)], 5) is None
    assert partial_periodicity_witness(RatMultiPoly(1, {(1,): Fraction(1, 25)}), [(0,)], 5) is not None


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


def test_eval_many_reduces_no_level_at_small_p_and_degree():
    # every monomial of degree <= 3 in 12 variables, at p = 13
    nmon = len(fpoly._binom_basis_indices(12, 3))
    for p in (5, 7, 11, 13):
        assert fpoly._reduced_levels(p, nmon, 3) == [False] * 3


@pytest.mark.parametrize(
    "p, exps, reduced",
    [
        # x^4 and y^3 close to 8 monomials: 8 * 1008 * 1008^4 < 2^53
        (1009, [(4, 0), (0, 3)], [False] * 4),
        # xy makes 9, and the same bound passes 2^53 at degree 4
        (1009, [(4, 0), (0, 3), (1, 1)], [False, False, False, True]),
        # x^8 on 9 monomials: level 4 is reduced to p - 1, so level 7 is next
        (1009, [(8, 0)], [False, False, False, True, False, False, True, False]),
        # an unreduced degree-2 entry times a coefficient passes 2^53
        (1000003, [(3, 0), (1, 2)], [False, True, True]),
    ],
)
def test_eval_many_reduces_only_levels_past_the_float_bound(p, exps, reduced, rng):
    polys = [FpMultiPoly(p, 2, {e: rng.randrange(1, p) for e in exps}) for _ in range(3)]
    polys.append(FpMultiPoly(p, 2, dict.fromkeys(exps, p - 2)))  # odd entries near the bound
    pos, levels = fpoly._monomial_closure(set(exps), 2)
    assert fpoly._reduced_levels(p, len(pos), len(levels)) == reduced
    # coordinates p - 2 and p - 1 (the largest entries), negative and >= p
    points = _random_points(p, 2, 100, rng, lo=-2 * p, hi=3 * p)
    points[:4] = [[p - 2, p - 2], [p - 1, p - 1], [-2, 2 * p - 2], [-1, -p - 1]]
    _assert_batch_matches_reference(polys, points)


def test_closure_plan_is_cached_bounded_and_read_only(rng):
    exps = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(30)]
    fpoly._closure_plan.cache_clear()
    plan = fpoly._monomial_closure(exps, 4)
    # the order of the exponents does not change the plan: one build
    for order in (exps[::-1], set(exps), frozenset(exps), exps + exps):
        assert fpoly._monomial_closure(order, 4) is plan
    assert fpoly._closure_plan.cache_info()[:2] == (4, 1)  # (hits, misses)
    # the cached plan equals a fresh build
    pos, levels = plan
    fresh_pos, fresh_levels = fpoly._closure_plan.__wrapped__(frozenset(exps), 4)
    assert dict(pos) == dict(fresh_pos) and len(levels) == len(fresh_levels)
    for (lo, hi, rows, var), (flo, fhi, frows, fvar) in zip(levels, fresh_levels):
        assert (lo, hi) == (flo, fhi)
        assert np.array_equal(rows, frows) and np.array_equal(var, fvar)
    # and no caller can write through it
    with pytest.raises(TypeError):
        pos[(5, 5, 5, 5)] = 0
    with pytest.raises(TypeError):
        levels[0] = levels[-1]
    for _, _, rows, var in levels:
        for arr in (rows, var):
            with pytest.raises(ValueError):
                arr[0] = 0
    # at most CLOSURE_CACHE_SIZE plans are kept
    assert fpoly._closure_plan.cache_info().maxsize == fpoly.CLOSURE_CACHE_SIZE
    for t in range(fpoly.CLOSURE_CACHE_SIZE + 3):
        fpoly._monomial_closure([(t, 1)], 2)
    assert fpoly._closure_plan.cache_info().currsize == fpoly.CLOSURE_CACHE_SIZE


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


# -- basis change against the Fraction-dict expansions it replaced -----------------


@lru_cache(maxsize=None)
def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _stirling1_signed(n, k):
    # falling factorial (x)_n = sum_k s1(n,k) x^k
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return _stirling1_signed(n - 1, k - 1) - (n - 1) * _stirling1_signed(n - 1, k)


def _binomial_coeffs_reference(f):
    """Per-axis expansion of each monomial in dicts of Fractions."""
    coords = {e: Fraction(c) for e, c in f.terms.items()}
    for j in range(f.nvars):
        nxt = {}
        for e, c in coords.items():
            k = e[j]
            # n^k = sum_t S2(k, t) * t! * C(n, t)
            for t in range(0, k + 1):
                s = _stirling2(k, t)
                if s == 0:
                    continue
                e2 = list(e)
                e2[j] = t
                key = tuple(e2)
                nxt[key] = nxt.get(key, Fraction(0)) + c * s * factorial(t)
        coords = {e: c for e, c in nxt.items() if c != 0}
    return coords


def _from_binomial_reference(nvars, coeffs):
    """Each binomial index expanded on its own, in dicts of Fractions."""
    terms = {}
    for idx, c in coeffs.items():
        c = Fraction(c)
        if c == 0:
            continue
        expansion = {tuple(idx): c}
        for j in range(nvars):
            nxt = {}
            for e, v in expansion.items():
                k = e[j]
                # C(n_j, k) = (1/k!) sum_t s1(k, t) n_j^t
                for t in range(0, k + 1):
                    s = _stirling1_signed(k, t)
                    if s == 0:
                        continue
                    e2 = list(e)
                    e2[j] = t
                    key = tuple(e2)
                    nxt[key] = nxt.get(key, Fraction(0)) + v * Fraction(s, factorial(k))
            expansion = nxt
        for e, v in expansion.items():
            terms[e] = terms.get(e, Fraction(0)) + v
    return RatMultiPoly(nvars, terms)


def _induce_reference(f, p):
    """Integral binomial coefficients of p f, each expanded over F_p on its own."""
    if f.degree() >= p:
        raise ValueRangeError("induce requires deg(f) < p")
    coords = _binomial_coeffs_reference(f.scale(p))
    if any(c.denominator != 1 for c in coords.values()):
        raise ValueRangeError("polynomial does not take values in Z/p")
    terms = {}
    for idx, c in coords.items():
        cmod = int(c) % p
        if cmod == 0:
            continue
        expansion = {tuple(idx): cmod}
        for j in range(f.nvars):
            nxt = {}
            for e, v in expansion.items():
                k = e[j]
                inv_fact = pow(factorial(k), -1, p)
                for t in range(0, k + 1):
                    s = _stirling1_signed(k, t) % p
                    if s == 0:
                        continue
                    e2 = list(e)
                    e2[j] = t
                    key = tuple(e2)
                    nxt[key] = (nxt.get(key, 0) + v * s * inv_fact) % p
            expansion = nxt
        for e, v in expansion.items():
            terms[e] = (terms.get(e, 0) + v) % p
    return FpMultiPoly(p, f.nvars, terms)


# denominators: 1, the primes of the induce tests, prime powers, and products
# of distinct primes; numerators reach past 2^63
_DENOMINATORS = [1, 2, 3, 5, 6, 7, 11, 13, 25, 30, 49, 143, 30030, 2**61 - 1]
_coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)),
    st.sampled_from(_DENOMINATORS),
)


def _exponent(nvars, deg):
    """A random exponent of total degree at most deg (units thrown on axes)."""
    return st.lists(st.integers(0, nvars - 1), max_size=deg).map(
        lambda axes: tuple(axes.count(j) for j in range(nvars))
    )


@st.composite
def _coordinate_dicts(draw, max_vars=8, max_deg=12):
    """(nvars, {exponent: Fraction}), sparse (a few random exponents of degree
    up to max_deg) or dense (every exponent of the simplex grid of a degree
    small enough that the grid has at most 250 points)."""
    nvars = draw(st.integers(1, max_vars))
    if draw(st.booleans()):
        deg = draw(st.integers(0, max_deg))
        exps = draw(st.lists(_exponent(nvars, deg), min_size=1, max_size=6))
    else:
        top = max(s for s in range(max_deg + 1) if comb(nvars + s, nvars) <= 250)
        exps = fpoly._binom_basis_indices(nvars, draw(st.integers(0, top)))
    return nvars, {e: draw(_coefficients) for e in exps}


_basis_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@_basis_settings
@given(_coordinate_dicts())
def test_binomial_coeffs_match_fraction_reference(case):
    nvars, terms = case
    f = RatMultiPoly(nvars, terms)
    got = f.binomial_coeffs()
    assert got == _binomial_coeffs_reference(f)
    assert all(type(c) is Fraction and c != 0 for c in got.values())


@_basis_settings
@given(_coordinate_dicts())
def test_from_binomial_matches_fraction_reference(case):
    nvars, coeffs = case
    got = RatMultiPoly.from_binomial(nvars, coeffs)
    assert got == _from_binomial_reference(nvars, coeffs)


@_basis_settings
@given(_coordinate_dicts())
def test_binomial_round_trip(case):
    f = RatMultiPoly(*case)
    assert RatMultiPoly.from_binomial(f.nvars, f.binomial_coeffs()) == f


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueRangeError as exc:
        return ValueRangeError, str(exc)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_induce_matches_fraction_reference(p, data):
    # Z/p valued inputs of degree < p (integer and 1/p binomial
    # coordinates), and arbitrary ones that may leave Z/p or reach degree p
    nvars = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        exps = data.draw(st.lists(_exponent(nvars, p - 1), min_size=1, max_size=6))
        coeffs = {
            e: Fraction(data.draw(st.integers(-(2**70), 2**70)), data.draw(st.sampled_from([1, p])))
            for e in exps
        }
        f = RatMultiPoly.from_binomial(nvars, coeffs)
        assert induce(f, p) == _induce_reference(f, p)
    else:
        f = RatMultiPoly(*data.draw(_coordinate_dicts(max_deg=p)))
        assert _outcome(induce, f, p) == _outcome(_induce_reference, f, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_induce_value_range_errors(p):
    x = RatMultiPoly.variable(2, 0)
    with pytest.raises(ValueRangeError, match="deg"):
        induce(RatMultiPoly(2, {(p - 1, 1): Fraction(1, p)}), p)
    for bad in (x.scale(Fraction(1, p * p)), x.scale(Fraction(1, 2 * p)), x * x.scale(Fraction(1, 2 * p))):
        # x^2 / (2p) = C(x, 1) / (2p) + C(x, 2) / p
        with pytest.raises(ValueRangeError, match="Z/p"):
            induce(bad, p)
        with pytest.raises(ValueRangeError, match="Z/p"):
            _induce_reference(bad, p)
    ok = x * x.scale(Fraction(1, p))  # C(x, 1) / p + 2 C(x, 2) / p
    assert induce(ok, p) == _induce_reference(ok, p) == FpMultiPoly(p, 2, {(2, 0): 1})


@pytest.mark.parametrize("kind", ["S2", "s1", 5, 13])
def test_stirling_tables_expand_their_basis(kind):
    # every row, evaluated at integer points, is the basis element it expands
    for deg in range(0, 5 if isinstance(kind, int) else 13):
        scale, rows = fpoly._stirling_table(deg, kind)
        assert len(rows) == deg + 1
        for k, row in enumerate(rows):
            for x in range(-3, deg + 3):
                if kind == "S2":
                    assert sum(w * fpoly.binom_int(x, t) for t, w in row) == x**k
                elif kind == "s1":
                    assert sum(w * x**t for t, w in row) == scale * fpoly.binom_int(x, k)
                else:
                    assert sum(w * x**t for t, w in row) % kind == fpoly.binom_int(x, k) % kind
                    assert scale == 1 and all(0 < w < kind for _, w in row)


def test_binom_int_past_the_recursion_limit():
    # k! for k in the thousands, where a factorial recursing once per unit
    # of k would overflow the interpreter stack
    assert fpoly.binom_int(3000, 1500) == comb(3000, 1500)
    assert fpoly.binom_int(-1, 2001) == -1


def test_basis_change_examples_with_scale_and_common_denominator():
    # C(n, 12) has the scale 12! to divide out; 1/6 and 1/10 share den 30
    assert RatMultiPoly.from_binomial(1, {(12,): 1}).evaluate([15]) == comb(15, 12)
    f = RatMultiPoly.from_binomial(2, {(3, 2): Fraction(1, 6), (0, 4): Fraction(-7, 10)})
    assert f.evaluate([5, 6]) == Fraction(1, 6) * comb(5, 3) * comb(6, 2) - Fraction(7, 10) * comb(6, 4)
    assert f.binomial_coeffs() == {(3, 2): Fraction(1, 6), (0, 4): Fraction(-7, 10)}
    x8 = RatMultiPoly(8, {(2, 2, 2, 2, 1, 1, 1, 1): Fraction(2**70 + 1, 30030)})
    assert x8.binomial_coeffs() == _binomial_coeffs_reference(x8)


def test_from_binomial_index_arity():
    with pytest.raises(ArityMismatch):
        RatMultiPoly.from_binomial(2, {(1,): 3})
    with pytest.raises(ArityMismatch):
        RatMultiPoly.from_binomial(2, {(1, 0, 0): 3})
    with pytest.raises(ArityMismatch):
        RatMultiPoly.from_binomial(2, {(1, 0): 1, (0,): 0})
    # C(n, k) = 0 for k < 0, so such an index contributes nothing
    got = RatMultiPoly.from_binomial(2, {(-1, 2): 5, (1, -3): Fraction(1, 7), (1, 0): 2})
    assert got == RatMultiPoly(2, {(1, 0): 2})
    assert RatMultiPoly.from_binomial(2, {(0, -1): 4}).is_zero()


def _integer_valued_reference(f):
    """Integer valued iff every binomial coordinate is an integer (Fractions)."""
    return all(c.denominator == 1 for c in f.binomial_coeffs().values())


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@_basis_settings
@given(data=st.data())
def test_integrality_tests_match_fraction_definition(p, data):
    # binomial coordinates over 1, p and p^2 (and a unit), so both answers
    # come up, and arbitrary coefficients, which are rarely integer valued
    if data.draw(st.booleans()):
        nvars = data.draw(st.integers(1, 6))
        exps = data.draw(st.lists(_exponent(nvars, 8), min_size=1, max_size=6))
        dens = st.sampled_from([1, 1, p, p * p, 2 * p])
        nums = st.integers(-(2**70), 2**70)
        coeffs = {e: Fraction(data.draw(nums), data.draw(dens)) for e in exps}
        f = RatMultiPoly.from_binomial(nvars, coeffs)
    else:
        f = RatMultiPoly(*data.draw(_coordinate_dicts()))
    assert f.is_integer_valued() == _integer_valued_reference(f)
    assert f.takes_z_over_p_values(p) == _integer_valued_reference(f.scale(p))


def test_integrality_tests_examples():
    x = RatMultiPoly.variable(2, 0)
    half_square = (x * x - x).scale(Fraction(1, 2))  # C(x, 2)
    assert half_square.is_integer_valued() and half_square.takes_z_over_p_values(5)
    assert not (x * x).scale(Fraction(1, 2)).is_integer_valued()
    assert x.scale(Fraction(1, 5)).takes_z_over_p_values(5)
    assert not x.scale(Fraction(1, 25)).takes_z_over_p_values(5)
    assert not x.scale(Fraction(1, 10)).takes_z_over_p_values(5)
    assert RatMultiPoly.zero(3).is_integer_valued()
    assert RatMultiPoly.zero(3).takes_z_over_p_values(7)


# -- the arithmetic shared by both rings, pointwise against evaluate ------------


_small_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 25]))
_ints = st.integers(-6, 6)
_arith_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _ring_polys(draw, nvars, count, ring=None):
    """count polynomials in nvars variables over one ring, F_p for a drawn
    p in {5, 7, 11, 13} or Q; ring ("fp" or "rat") fixes it, else it is drawn."""
    ring = ring or draw(st.sampled_from(["fp", "rat"]))
    p = draw(st.sampled_from([5, 7, 11, 13]))
    polys = []
    for _ in range(count):
        exps = draw(st.lists(_exponent(nvars, 3), max_size=5))
        if ring == "fp":
            polys.append(FpMultiPoly(p, nvars, {e: draw(st.integers(-20, 20)) for e in exps}))
        else:
            polys.append(RatMultiPoly(nvars, {e: draw(_small_fractions) for e in exps}))
    return polys


def _in_ring(f, v):
    """v as a value of f's ring: a residue mod p, or v itself over Q."""
    return v % f.p if isinstance(f, FpMultiPoly) else v


@_arith_settings
@given(data=st.data())
def test_ring_operations_match_pointwise(data):
    nvars = data.draw(st.integers(1, 3))
    f, g = data.draw(_ring_polys(nvars, 2))
    c = data.draw(st.one_of(_ints, _small_fractions) if isinstance(f, RatMultiPoly) else _ints)
    x = data.draw(st.lists(_ints, min_size=nvars, max_size=nvars))
    fx, gx = f.evaluate(x), g.evaluate(x)
    assert (f + g).evaluate(x) == _in_ring(f, fx + gx)
    assert (f - g).evaluate(x) == _in_ring(f, fx - gx)
    assert (-f).evaluate(x) == _in_ring(f, -fx)
    assert f.scale(c).evaluate(x) == _in_ring(f, c * fx)
    assert (f * g).evaluate(x) == _in_ring(f, fx * gx)


@_arith_settings
@given(data=st.data())
def test_shift_and_delta_match_pointwise(data):
    nvars = data.draw(st.integers(1, 3))
    (f,) = data.draw(_ring_polys(nvars, 1))
    x = data.draw(st.lists(_ints, min_size=nvars, max_size=nvars))
    h = data.draw(st.lists(_ints, min_size=nvars, max_size=nvars))
    moved = [a + b for a, b in zip(x, h)]
    assert f.shift(h).evaluate(x) == f.evaluate(moved)
    assert f.delta(h).evaluate(x) == _in_ring(f, f.evaluate(moved) - f.evaluate(x))


@_arith_settings
@given(data=st.data())
def test_partial_matches_power_rule_per_monomial(data):
    nvars = data.draw(st.integers(1, 3))
    (f,) = data.draw(_ring_polys(nvars, 1))
    j = data.draw(st.integers(0, nvars - 1))
    x = data.draw(st.lists(_ints, min_size=nvars, max_size=nvars))
    # d/dn_j (c n^e) = c e_j n^(e - unit_j), evaluated monomial by monomial
    want = sum(
        c * e[j] * x[j] ** (e[j] - 1) * prod(x[i] ** e[i] for i in range(nvars) if i != j)
        for e, c in f.terms.items()
        if e[j]
    )
    assert f.partial(j).evaluate(x) == _in_ring(f, want)


@_arith_settings
@given(data=st.data())
def test_substitute_into_other_arity_matches_pointwise(data):
    nvars, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    ring = data.draw(st.sampled_from(["fp", "rat"]))
    (f,) = data.draw(_ring_polys(nvars, 1, ring))
    images = data.draw(_ring_polys(m, nvars, ring))
    if ring == "fp":  # the images and f over one field
        images = [FpMultiPoly(f.p, m, g.terms) for g in images]
    y = data.draw(st.lists(_ints, min_size=m, max_size=m))
    got = f.substitute(images)
    assert got.nvars == m
    assert got.evaluate(y) == f.evaluate([g.evaluate(y) for g in images])


@_arith_settings
@given(data=st.data())
def test_compose_linear_with_shift_matches_pointwise(data):
    nvars = data.draw(st.integers(1, 3))
    (f,) = data.draw(_ring_polys(nvars, 1))
    rows = st.lists(_ints, min_size=nvars, max_size=nvars)
    B = data.draw(st.lists(rows, min_size=nvars, max_size=nvars))
    shift = data.draw(rows)
    x = data.draw(rows)
    image = [sum(x[k] * B[k][j] for k in range(nvars)) + shift[j] for j in range(nvars)]
    assert f.compose_linear(B, shift).evaluate(x) == f.evaluate(image)


@_arith_settings
@given(data=st.data())
def test_fiber_map_and_period_poly_match_pointwise(data):
    nvars = data.draw(st.integers(1, 3))
    (f,) = data.draw(_ring_polys(nvars, 1, "rat"))
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    n = data.draw(st.lists(_ints, min_size=nvars, max_size=nvars))
    m = data.draw(st.lists(_ints, min_size=nvars, max_size=nvars))
    moved = [a + p * b for a, b in zip(n, m)]
    assert f.fiber_map(n, p).evaluate(m) == f.evaluate(moved)
    assert f.two_variable_period_poly(p).evaluate(n + m) == f.evaluate(moved) - f.evaluate(n)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_mixed_rings_raise_arity_mismatch_in_both_orders(op):
    fp5 = FpMultiPoly(5, 2, {(1, 0): 2, (0, 0): 1})
    fp7 = FpMultiPoly(7, 2, {(1, 0): 2, (0, 0): 1})
    rat = RatMultiPoly(2, {(1, 0): Fraction(2, 5), (0, 0): 1})
    wide = FpMultiPoly(5, 3, {(1, 0, 0): 2})
    for a, b in [(fp5, rat), (rat, fp5), (fp5, fp7), (fp7, fp5), (fp5, wide), (wide, fp5)]:
        with pytest.raises(ArityMismatch):
            op(a, b)


def test_rat_scale_converts_its_factor_exactly():
    f = RatMultiPoly(1, {(1,): 3, (0,): Fraction(1, 7)})
    # 0.1 is the binary fraction Fraction(0.1), not the float product 0.1 * 3
    assert f.scale(0.1) == RatMultiPoly(1, {(1,): 3 * Fraction(0.1), (0,): Fraction(0.1) / 7})
    assert f.scale(Fraction(7, 3)).terms == {(1,): 7, (0,): Fraction(1, 3)}


def test_rat_constructor_accepts_int_str_and_fraction_alike():
    as_int = RatMultiPoly(2, {(1, 0): 3, (0, 1): -2, (0, 0): 0})
    as_str = RatMultiPoly(2, {(1, 0): "3", (0, 1): "-4/2", (0, 0): "0"})
    as_frac = RatMultiPoly(2, {(1, 0): Fraction(3), (0, 1): Fraction(-2), (0, 0): Fraction(0)})
    assert as_int == as_str == as_frac
    for f in (as_int, as_str, as_frac):
        # zero terms are dropped and every kept coefficient is a Fraction
        assert f.terms == {(1, 0): 3, (0, 1): -2}
        assert all(type(c) is Fraction for c in f.terms.values())
    assert RatMultiPoly(1, {(2,): Fraction(0), (1,): "0/5"}).terms == {}


def test_rat_from_json_rejects_negative_exponents():
    bad = {"nvars": 3, "terms": [{"exp": [-1, 0, 0], "coeff": "1"}]}
    with pytest.raises(ValueRangeError):
        RatMultiPoly.from_json(bad)
    ok = {"nvars": 3, "terms": [{"exp": [1, 0, 0], "coeff": "1"}, {"exp": [0, 0, 7], "coeff": "2/3"}]}
    assert RatMultiPoly.from_json(ok) == RatMultiPoly(3, {(1, 0, 0): 1, (0, 0, 7): Fraction(2, 3)})


# -- identities decided on the simplex grid -------------------------------------


def _sum_reference(nvars, summands):
    """sum_s c_s prod(factors_s) built by RatMultiPoly products in
    Fractions: the reference for fpoly._simplex_grid_sum."""
    total = RatMultiPoly.zero(nvars)
    for c, factors in summands:
        term = RatMultiPoly.constant(nvars, c)
        for f in factors:
            term = term * f
        total = total + term
    return total


def _assert_grid_sum_matches_reference(nvars, summands):
    values, den = fpoly._simplex_grid_sum(nvars, summands)
    ref = _sum_reference(nvars, summands)
    top = max((sum(f.degree() for f in fs) for c, fs in summands if c and all(fs)), default=0)
    grid = fpoly._binom_basis_indices(nvars, top)
    assert den > 0 and len(values) == len(grid)
    assert [Fraction(int(v), den) for v in values] == [ref.evaluate(g) for g in grid]
    assert bool((values == 0).all()) == ref.is_zero()
    assert bool((values == values[0]).all()) == (ref.degree() <= 0)
    return ref


_small_coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 6, 7]))


@st.composite
def _grid_sum_cases(draw):
    """(nvars, summands, kind): c A B - c (A B) + d C - d C, plus a constant
    for kind "constant", or with one coefficient of the expanded A B moved
    at an exponent of the top degree D for kind "perturbed"."""
    nvars = draw(st.integers(1, 4))
    # small coefficients keep a case on the int64 path
    coefficients = draw(st.sampled_from([_small_coefficients, _coefficients]))

    def poly(deg):
        exps = draw(st.lists(_exponent(nvars, deg), min_size=1, max_size=5))
        return RatMultiPoly(nvars, {e: draw(coefficients) for e in exps})

    A, B, C = poly(3), poly(3), poly(4)
    c, d = draw(coefficients), draw(coefficients)
    kind = draw(st.sampled_from(["identity", "constant", "perturbed"]))
    AB = A * B
    summands = [(c, [A, B]), (d, [C]), (-d, [C])]
    if kind == "perturbed":
        if not (c and AB):
            kind = "identity"
        else:
            top = max(A.degree() + B.degree(), C.degree() if d else 0)
            axes = draw(st.lists(st.integers(0, nvars - 1), min_size=top, max_size=top))
            exp = tuple(axes.count(j) for j in range(nvars))
            AB = AB + RatMultiPoly(nvars, {exp: draw(coefficients.filter(bool))})
    summands.append((-c, [AB]))
    if kind == "constant":
        summands.append((draw(coefficients), []))
    return nvars, summands, kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_grid_sum_cases())
def test_simplex_grid_sum_matches_fraction_reference(case):
    # coefficients reach past 2^63 and denominators reach 2^61 - 1, so the
    # Python-integer path is taken as well as the int64 one
    nvars, summands, kind = case
    ref = _assert_grid_sum_matches_reference(nvars, summands)
    if kind == "identity":
        assert ref.is_zero()
    elif kind == "constant":
        assert ref.degree() <= 0
    else:  # the moved coefficient alone, at its degree-D monomial
        assert len(ref.terms) == 1


def test_simplex_grid_sum_examples():
    x, y = RatMultiPoly.variable(2, 0), RatMultiPoly.variable(2, 1)
    # (x + y)^2 = x^2 + 2 x y + y^2 on the degree-2 grid of 6 points
    s = x + y
    values, den = fpoly._simplex_grid_sum(2, [(1, [s, s]), (-1, [x * x + (x * y).scale(2) + y * y])])
    assert values.dtype == np.int64 and len(values) == 6 and den == 1 and not values.any()
    # x (x - 1) / 2 - C(x, 2) is zero, and + 3/7 makes it the constant 3/7
    half = RatMultiPoly(2, {(2, 0): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    binom = RatMultiPoly.from_binomial(2, {(2, 0): 1})
    values, den = fpoly._simplex_grid_sum(2, [(1, [half]), (-1, [binom]), (Fraction(3, 7), [])])
    assert [Fraction(int(v), den) for v in values] == [Fraction(3, 7)] * 6
    # C(x, 2) C(y, 2) vanishes on the degree-3 grid; only the degree-4 grid
    # sees it, and the top degree comes from the factors, not their number
    values, _ = fpoly._simplex_grid_sum(2, [(1, [binom, RatMultiPoly.from_binomial(2, {(0, 2): 1})])])
    assert len(values) == 15 and list(values).count(0) == 14
    # zero factors and zero weights drop their summand; nothing left is 0
    values, den = fpoly._simplex_grid_sum(2, [(5, [x, RatMultiPoly.zero(2)]), (0, [y])])
    assert list(values) == [0] and den == 1
    # values past 2^63 are Python integers
    big = x.scale(2**70)
    values, _ = fpoly._simplex_grid_sum(2, [(1, [big, big])])
    assert values.dtype == object and max(values) == 2**140 * 4
