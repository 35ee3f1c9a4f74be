import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp import equidist
from spherefp.cli import main
from spherefp.counting import root_sum
from spherefp.division import ZpQuadForm
from spherefp.equidist import (
    DichotomyViolation,
    HorizontalCharacter,
    TorusPolySeq,
    constancy_check,
    equidist_test,
    frequencies,
    frequency_count,
    leibman_probe,
    random_partially_periodic,
    sphere_points,
    weyl_dichotomy,
)
from spherefp.fpoly import RatMultiPoly, ValueRangeError, binom_int, partial_periodicity_witness
from spherefp.quadform import TheoremViolation

from conftest import random_int_valued


def sphere_form_poly(p, d, r):
    terms = {}
    for j in range(d):
        e = [0] * d
        e[j] = 2
        terms[tuple(e)] = Fraction(1, p)
    terms[(0,) * d] = Fraction(-r, p)
    return RatMultiPoly(d, terms)


def test_single_point_phase_examples():
    const = TorusPolySeq(1, 1, 0, {(0,): (Fraction(7, 3),)})
    assert constancy_check((1,), const, [(11,)]) == (True, Fraction(1, 3))
    lin = TorusPolySeq(1, 1, 1, {(1,): (Fraction(1, 5),)})
    assert constancy_check((1,), lin, [(5,)]) == (True, 0)
    binom = TorusPolySeq(1, 1, 2, {(2,): (Fraction(1, 5),)})
    assert constancy_check((1,), binom, [(4,)]) == (True, Fraction(1, 5))


# -- the Fraction reference for the integer-residue phases ------------------------


def reference_phase(g, k, n):
    """k.g(n) mod Z through k.g as a RatMultiPoly, evaluated in Fractions."""
    dot = {idx: sum(Fraction(kj) * c for kj, c in zip(k, vec)) for idx, vec in g.coeffs.items()}
    return RatMultiPoly.from_binomial(g.d, dot).evaluate(list(n)) % 1


def reference_average(values):
    """|mean of e(v)| over Fraction phases, summed point by point."""
    if len(set(values)) == 1:
        return 1.0
    re = math.fsum(math.cos(2 * math.pi * float(v)) for v in values)
    im = math.fsum(math.sin(2 * math.pi * float(v)) for v in values)
    return abs(complex(re, im)) / len(values)


# 10^12 + 39 is prime, so Q (and len(terms) Q^2) leaves int64
DENOMINATORS = [1, 2, 3, 5, 7, 25, 49, 2**31 - 1, 10**12 + 39]


def random_sequence(r):
    d, m, s = r.randint(1, 3), r.randint(1, 3), r.randint(0, 3)
    coeffs = {}
    for _ in range(r.choice([0, 1, 3, 5])):  # no terms: g = 0
        idx = [0] * d
        for _ in range(r.randint(0, s)):
            idx[r.randrange(d)] += 1
        den = r.choice(DENOMINATORS)
        coeffs[tuple(idx)] = tuple(Fraction(r.randrange(-60, 60), den) for _ in range(m))
    return TorusPolySeq(d, m, s, coeffs)


def random_points(r, d, p):
    # negative coordinates and coordinates >= p, besides the sphere's [0, p)
    return [tuple(r.randrange(-2 * p, 3 * p) for _ in range(d)) for _ in range(r.randint(1, 30))]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_residue_phases_match_the_fraction_reference(seed):
    r = random.Random(seed)
    g = random_sequence(r)
    omega = random_points(r, g.d, r.choice([5, 7, 13]))
    freqs = frequencies(g.m, 2)
    phases = {k: [reference_phase(g, k, n) for n in omega] for k in freqs}
    for k in freqs:
        assert constancy_check(k, g, omega) == (len(set(phases[k])) == 1, phases[k][0])
    # the old scan: first strict maximum and first constant frequency
    max_fourier, argmax, const = 0.0, None, None
    for k in freqs:
        val = reference_average(phases[k])
        if val > max_fourier + 1e-15:
            max_fourier, argmax = val, k
        if const is None and len(set(phases[k])) == 1:
            const = k
    rep = equidist_test(g, omega, 1.0, 2)
    assert rep.max_fourier == max_fourier
    if const is None:
        assert (rep.verdict, rep.witness_k) == ("equidistributed", argmax)
    else:
        assert (rep.verdict, rep.witness_k, rep.constant) == ("obstructed", const, phases[const][0])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_weyl_residues_match_exact_evaluation(seed):
    r = random.Random(seed)
    p, d = r.choice([5, 7]), r.randint(1, 4)
    coeffs = {}
    for _ in range(r.randint(0, 4)):
        idx = [0] * d
        for _ in range(r.randint(0, 3)):
            idx[r.randrange(d)] += 1
        coeffs[tuple(idx)] = r.randrange(-20, 20)
    g = RatMultiPoly.from_binomial(d, coeffs)  # integer valued, p-free denominators
    omega = random_points(r, d, p)
    residues = [int(g.evaluate(list(n))) % p for n in omega]
    if len(set(residues)) == 1:
        return  # the constant branch certifies on the sphere, not on omega
    with mock.patch.object(equidist, "root_sum", wraps=root_sum) as spy:
        out = weyl_dichotomy(g, p, 1, 1.0, omega=omega)
    counts = [residues.count(a) for a in range(p)]
    assert spy.call_args.args == (counts, p)
    assert out.branch == "sum_small" and out.value == abs(root_sum(counts, p)) / len(omega)


@pytest.mark.parametrize("Q, dtype", [(25, "int64"), (10**12 + 39, "object")])
def test_binomial_residue_table_entries(Q, dtype):
    indices = [(0, 0), (2, 1), (3, 0), (1, 3)]
    points = [(-7, 4), (0, 0), (12, -3), (10**13, 5)]
    table = equidist._binomial_residue_table(points, indices, 2, Q)
    assert table.dtype == dtype
    assert table.tolist() == [
        [binom_int(n[0], i[0]) * binom_int(n[1], i[1]) % Q for i in indices] for n in points
    ]


def test_filtration_blocks():
    TorusPolySeq(1, 2, 1, {(1,): (0, Fraction(1, 2))}, block_dims=(2, 1))
    with pytest.raises(ValueError):
        TorusPolySeq(1, 2, 1, {(1,): (Fraction(1, 2), 0)}, block_dims=(2, 1))
    with pytest.raises(ValueError):
        TorusPolySeq(1, 1, 1, {(2,): (Fraction(1, 2),)})


def test_frequencies_graded_order():
    f1 = frequencies(1, 3)
    assert f1 == [(1,), (-1,), (2,), (-2,), (3,), (-3,)]
    f2 = frequencies(2, 1)
    assert set(f2) == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert all(sum(abs(x) for x in k) <= 2 for k in frequencies(2, 2))


def test_character_complexity():
    assert HorizontalCharacter((1, -2)).complexity == 3
    assert HorizontalCharacter((0,)).is_trivial()


def test_sphere_obstruction():
    p, d, r = 5, 3, 1
    omega = sphere_points(p, d, r)
    g = TorusPolySeq.from_rat_poly(sphere_form_poly(p, d, r) + RatMultiPoly.constant(d, Fraction(r, p)), 2)
    rep = equidist_test(g, omega, 0.2, 5)
    assert rep.verdict == "obstructed"
    assert rep.witness_k == (1,)
    assert rep.constant == Fraction(r, p)
    assert rep.max_fourier == 1.0


def test_equidistributed_example():
    # n1/p on the 30-point sphere: the K = 1 average is about 0.10300
    omega = sphere_points(5, 3, 1)
    g = TorusPolySeq.from_rat_poly(RatMultiPoly(3, {(1, 0, 0): Fraction(1, 5)}), 1)
    rep = equidist_test(g, omega, 0.2, 1)
    assert rep.verdict == "equidistributed"
    assert abs(rep.max_fourier - 5 * (math.sqrt(5) - 1) / 2 / 30) < 1e-9


def test_zero_sequence_obstructed():
    omega = sphere_points(5, 3, 1)
    g = TorusPolySeq(3, 1, 1, {})
    rep = equidist_test(g, omega, 0.2, 4)
    assert rep.verdict == "obstructed" and rep.constant == 0 and rep.witness_k == (1,)


def test_character_search_constructed(rng):
    # k.g constant by construction in a 2-torus:
    # g = (h * (n.n - r)/p + integer poly, anything)
    p, d, r = 5, 3, 1
    omega = sphere_points(p, d, r)
    m = sphere_form_poly(p, d, r)
    comp0 = m.scale(3) + random_int_valued(d, 2, rng)
    comp1 = RatMultiPoly(d, {(1, 0, 0): Fraction(1, 5)})
    coeffs = {}
    for idx, c in comp0.binomial_coeffs().items():
        coeffs.setdefault(idx, [Fraction(0), Fraction(0)])[0] = c
    for idx, c in comp1.binomial_coeffs().items():
        coeffs.setdefault(idx, [Fraction(0), Fraction(0)])[1] = c
    g = TorusPolySeq(d, 2, 2, {k: tuple(v) for k, v in coeffs.items()})
    rep = equidist_test(g, omega, 0.2, 2)
    assert rep.verdict == "obstructed" and rep.witness_k == (1, 0)
    ok, val = constancy_check(rep.witness_k, g, omega)
    assert ok and val == rep.constant


def test_constancy_examples():
    p, d, r = 5, 3, 1
    omega = sphere_points(p, d, r)
    g = TorusPolySeq.from_rat_poly(sphere_form_poly(p, d, r), 2)
    ok, value = constancy_check((0,), g, omega)
    assert ok and value == 0
    ok, _ = constancy_check((1,), g, [omega[0]])
    assert ok
    ok, value = constancy_check((1,), g, omega)
    assert ok and value == 0
    # scaling: constancy at k implies constancy at t k
    for t in (2, 3, 7):
        ok, _ = constancy_check((t,), g, omega)
        assert ok


def test_obstructed_modulus_is_one(rng):
    # whenever the test reports obstructed, the witness character's average
    # has modulus exactly 1 by the algebraic identity
    p, d = 5, 4
    omega = sphere_points(p, d, 1)
    for _ in range(10):
        f = random_partially_periodic(p, d, 2, rng, omega)
        g = TorusPolySeq.from_rat_poly(f, 2)
        try:
            rep = equidist_test(g, omega, 0.3, 8)
        except DichotomyViolation:
            continue
        if rep.verdict == "obstructed":
            ok, _ = constancy_check(rep.witness_k, g, omega)
            assert ok


def test_goodcoordinates_specialization(rng):
    # p^s (k.g) takes values in Z + C for partially periodic g on the sphere
    p, d, s = 5, 3, 2
    omega = sphere_points(p, d, 1)
    for _ in range(10):
        f = random_partially_periodic(p, d, s, rng, omega)
        scaled = f.scale(p**s)
        coeffs = scaled.binomial_coeffs()
        for idx, c in coeffs.items():
            if any(idx):
                assert c.denominator == 1
        # qmm specialization: coefficients are rational by representation
        assert all(isinstance(c, Fraction) for c in f.binomial_coeffs().values())


def test_weyl_constant_branch_constructed(rng):
    p, d, r = 7, 4, 1
    Mz = ZpQuadForm.sphere(p, d, r)
    npoly = Mz.integer_poly()
    for _ in range(5):
        g1 = random_int_valued(d, 1, rng)
        g2 = random_int_valued(d, 2, rng)
        a = rng.randrange(p)
        g = npoly * g1 + g2.scale(p) + RatMultiPoly.constant(d, a)
        out = weyl_dichotomy(g, p, r, 0.5)
        assert out.branch == "constant"
        assert out.value == 1.0
        assert out.constant == Fraction(a, p)
        lhs = npoly * out.g1 + out.g2.scale(p) + RatMultiPoly.constant(d, a)
        assert lhs == g
        assert out.g1.is_integer_valued() and out.g2.is_integer_valued()



def test_weyl_reverify_rejects_a_corrupted_certificate(monkeypatch, rng):
    # g1 + 1 in place of g1 moves (n.n - r) g1 + p g2 + a off g by n.n - r
    p, d, r = 7, 4, 1
    npoly = ZpQuadForm.sphere(p, d, r).integer_poly()
    g = npoly * random_int_valued(d, 1, rng) + random_int_valued(d, 2, rng).scale(p) + RatMultiPoly.constant(d, 3)
    assert weyl_dichotomy(g, p, r, 0.5).branch == "constant"
    real = equidist.lift_nullstellensatz

    def shifted(P, M):
        g1, g2 = real(P, M)
        return g1 + RatMultiPoly.constant(d, 1), g2

    monkeypatch.setattr(equidist, "lift_nullstellensatz", shifted)
    with pytest.raises(TheoremViolation, match="Weyl certificate failed to re-verify"):
        weyl_dichotomy(g, p, r, 0.5)

def test_weyl_cubic_example():
    # n1^3 on the radius-1 sphere mod 7: cubes collapse onto {0, 1, 6},
    # giving |sum| ~ 0.6706 by direct summation
    g = RatMultiPoly(4, {(3, 0, 0, 0): 1})
    out = weyl_dichotomy(g, 7, 1, 0.7)
    assert out.branch == "sum_small"
    assert abs(out.value - 0.6705535766) < 1e-6
    with pytest.raises(DichotomyViolation):
        weyl_dichotomy(g, 7, 1, 0.5)


def test_weyl_constant_poly():
    out = weyl_dichotomy(RatMultiPoly.constant(4, 9), 7, 1, 0.5)
    assert out.branch == "constant"
    assert out.g1.is_zero()
    assert out.g2 == RatMultiPoly.constant(4, 1)  # 9 = 2 + 7 * 1
    assert out.constant == Fraction(2, 7)


def test_weyl_rejects_non_integer_valued():
    with pytest.raises(ValueError):
        weyl_dichotomy(RatMultiPoly(3, {(1, 0, 0): Fraction(1, 3)}), 5, 1, 0.5)


def test_weyl_rejects_a_denominator_divisible_by_p(tmp_path, capsys):
    # C(n1, 5) is integer valued, but its monomial denominator 120 is 0 mod 5
    g = RatMultiPoly.from_binomial(4, {(5, 0, 0, 0): 1})
    with pytest.raises(ValueRangeError, match="denominator divisible by p"):
        weyl_dichotomy(g, 5, 1, 0.5)
    path = tmp_path / "weyl.json"
    path.write_text(json.dumps({"poly": g.to_json(), "radius": 1}))
    assert main(["weyl", "--prime", "5", "--delta", "0.5", "--json", str(path)]) == 5
    assert capsys.readouterr().err == "hypothesis not met: denominator divisible by p\n"


def test_leibman_probe_smoke(rng):
    res = leibman_probe(5, 4, 1, 2, 0.3, 10, 20, rng)
    assert res["trials"] == 10
    assert res["equidistributed"] + res["obstructed"] + len(res["violations"]) == 10
    assert res["regime_ok"] is False  # d = 4 < s + 13
    for bad in res["violations"]:
        assert "max_fourier" in bad["data"]


def test_generator_produces_partially_periodic(rng):
    p, d = 5, 3
    omega = sphere_points(p, d, 1)
    for _ in range(10):
        f = random_partially_periodic(p, d, 4, rng, omega)
        assert partial_periodicity_witness(f, omega, p) is None


def test_sequence_json_roundtrip():
    g = TorusPolySeq(2, 2, 2, {(1, 0): (Fraction(1, 5), 0), (0, 2): (0, Fraction(2, 25))})
    blob = g.to_json()
    g2 = TorusPolySeq.from_json(blob)
    assert g2.coeffs == g.coeffs and g2.m == g.m and g2.s == g.s


def test_frequency_budget_overrun_is_the_library_budget_error(monkeypatch):
    from spherefp.ffcore import BudgetExceeded

    omega = sphere_points(5, 3, 1)
    g = TorusPolySeq.from_rat_poly(RatMultiPoly(3, {(1, 0, 0): Fraction(1, 5)}), 1)
    # m = 1, K = 5: the ten frequencies +-1..+-5, and k = 5 kills n1/5
    monkeypatch.setattr(equidist, "FREQ_BUDGET", 9)
    with pytest.raises(BudgetExceeded):
        equidist_test(g, omega, 0.2, 5)
    monkeypatch.setattr(equidist, "FREQ_BUDGET", 10)
    assert equidist_test(g, omega, 0.2, 5).verdict == "obstructed"


def test_frequency_budget_checked_before_frequencies_are_built(monkeypatch):
    from spherefp.ffcore import BudgetExceeded

    def never(*args, **kwargs):
        raise AssertionError("frequencies built before the budget check")

    # m = 2, K = 320: 205,440 frequencies against the default budget of 200,000
    g = TorusPolySeq(3, 2, 1, {(1, 0, 0): (Fraction(1, 5), Fraction(2, 5))})
    monkeypatch.setattr(equidist, "frequencies", never)
    with pytest.raises(BudgetExceeded, match="205440 frequencies"):
        equidist_test(g, [(0, 0, 1)], 0.2, 320)


def test_entry_points_refuse_a_vacuous_K_and_a_delta_outside_0_1(monkeypatch, rng):
    # K = 0 tested no frequency yet read "equidistributed", K = -1 crashed in
    # math.comb, and delta <= 0 or nan raised the theorem's DichotomyViolation:
    # all three are bad input, refused before any work with the CLI's rule
    from spherefp.ffcore import MalformedInput

    def never(*args, **kwargs):
        raise AssertionError("work started before the input checks")

    omega = sphere_points(5, 3, 1)
    g = TorusPolySeq.from_rat_poly(RatMultiPoly(3, {(1, 0, 0): Fraction(1, 5)}), 1)
    f = RatMultiPoly(3, {(1, 0, 0): Fraction(1)})
    monkeypatch.setattr(equidist, "frequency_count", never)
    monkeypatch.setattr(equidist, "sphere_points", never)
    for K in (0, -1, True, 2.0, "2"):
        with pytest.raises(MalformedInput, match=f"K must be an integer >= 1, got {K!r}"):
            equidist_test(g, omega, 0.3, K)
        with pytest.raises(MalformedInput, match="K must be an integer >= 1"):
            leibman_probe(5, 4, 1, 2, 0.3, 3, K, rng)
    for delta in (0, -1, float("nan"), 1.5):
        with pytest.raises(MalformedInput, match=r"delta must lie in \(0, 1\], got"):
            equidist_test(g, omega, delta, 2)
        with pytest.raises(MalformedInput, match=r"delta must lie in \(0, 1\]"):
            weyl_dichotomy(f, 5, 1, delta)
        with pytest.raises(MalformedInput, match=r"delta must lie in \(0, 1\]"):
            leibman_probe(5, 4, 1, 2, delta, 3, 20, rng)
    monkeypatch.undo()
    assert equidist_test(g, omega, 1, 1).verdict == "equidistributed"
    assert weyl_dichotomy(f, 5, 1, 1.0).branch == "sum_small"


@pytest.mark.parametrize("m, K", [(1, 5), (2, 5), (3, 5), (2, 50), (3, 20)])
def test_frequency_count_closed_form(m, K):
    assert frequency_count(m, K) == len(frequencies(m, K))
