"""Equidistribution testing for torus-valued polynomial sequences along
spherical sets, and the spherical Weyl dichotomy with divisibility
certificates.

Targets are tori R^m / Z^m (the abelian specialization), where failure of
delta-equidistribution reduces to finitely many character sums: the test
scans integer frequency vectors k with 0 < |k|_1 <= K in graded
lexicographic order and reports the largest Fourier average.  An
obstruction is only declared when the composed character is exactly
constant on the set, which makes |E e(k.g)| = 1 an algebraic identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counting import root_sum
from .division import ZpQuadForm, lift_nullstellensatz
from .ffcore import BudgetExceeded
from .fpoly import RatMultiPoly, _simplex_grid_sum, binom_int, partial_periodicity_witness
from .quadform import TheoremViolation


class DichotomyViolation(Exception):
    """Large sum without exact constancy; expected only outside the
    theorem regime (d < s + 13 or p too small)."""

    def __init__(self, data):
        super().__init__(str(data))
        self.data = data


class TorusPolySeq:
    """Degree-<= s polynomial map Z^d -> R^m/Z^m in the binomial basis.

    coeffs: map from index tuples i (|i| <= s) to rational vectors in Q^m.
    When block_dims = (m_0 >= m_1 >= ... >= m_s) is given, the degree-|i|
    coefficient must lie in the last m_{|i|} coordinates, mirroring an
    N-filtration on the torus; by default every block is full.
    """

    def __init__(self, d, m, s, coeffs, block_dims=None):
        self.d = d
        self.m = m
        self.s = s
        self.coeffs = {}
        for idx, vec in coeffs.items():
            idx = tuple(idx)
            if len(idx) != d:
                raise ValueError("index arity mismatch")
            if sum(idx) > s:
                raise ValueError("coefficient beyond the filtration degree")
            vec = tuple(Fraction(x) for x in vec)
            if len(vec) != m:
                raise ValueError("coefficient dimension mismatch")
            if any(vec):
                self.coeffs[idx] = vec
        if block_dims is not None:
            if len(block_dims) != s + 1:
                raise ValueError("need s + 1 filtration block dimensions")
            for idx, vec in self.coeffs.items():
                mj = block_dims[sum(idx)]
                if any(vec[: m - mj]):
                    raise ValueError(
                        f"degree-{sum(idx)} coefficient leaves filtration block"
                    )
        self.block_dims = block_dims

    @classmethod
    def from_rat_poly(cls, f: RatMultiPoly, s=None):
        coeffs = {idx: (c,) for idx, c in f.binomial_coeffs().items()}
        degree = max((sum(i) for i in coeffs), default=0)
        return cls(f.nvars, 1, s if s is not None else degree, coeffs)

    def component(self, j) -> RatMultiPoly:
        return RatMultiPoly.from_binomial(
            self.d, {idx: vec[j] for idx, vec in self.coeffs.items()}
        )

    def dot(self, k) -> RatMultiPoly:
        """The scalar sequence k . g as a rational polynomial."""
        if len(k) != self.m:
            raise ValueError("frequency arity mismatch")
        out = {}
        for idx, vec in self.coeffs.items():
            c = sum(Fraction(ki) * vi for ki, vi in zip(k, vec))
            if c:
                out[idx] = c
        return RatMultiPoly.from_binomial(self.d, out)

    def evaluate(self, n):
        """g(n) in Q^m before reduction mod Z^m."""
        total = [Fraction(0)] * self.m
        for idx, vec in self.coeffs.items():
            w = 1
            for nj, ij in zip(n, idx):
                if ij:
                    w *= binom_int(nj, ij)
            if w:
                for t in range(self.m):
                    total[t] += vec[t] * w
        return tuple(total)

    def to_json(self):
        return {
            "m": self.m,
            "s": self.s,
            "d": self.d,
            "coeffs": [
                {
                    "index": list(idx),
                    "value": [f"{c.numerator}/{c.denominator}" for c in vec],
                }
                for idx, vec in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, obj):
        coeffs = {
            tuple(e["index"]): tuple(Fraction(v) for v in e["value"])
            for e in obj["coeffs"]
        }
        d = obj.get("d")
        if d is None:
            if not coeffs:
                raise ValueError("cannot infer arity of an empty sequence")
            d = len(next(iter(coeffs)))
        return cls(d, obj["m"], obj["s"], coeffs)


def seq_eval(g: TorusPolySeq, n):
    """g(n) reduced into [0,1)^m, exactly."""
    return tuple(x - math.floor(x) for x in g.evaluate(n))


class HorizontalCharacter:
    """An integer frequency vector k; eta(x) = k.x maps Z^m into Z."""

    def __init__(self, k):
        self.k = tuple(int(x) for x in k)
        self.complexity = sum(abs(x) for x in self.k)

    def is_trivial(self):
        return self.complexity == 0

    def to_json(self):
        return {"k": list(self.k), "complexity": self.complexity}


def frequencies(m, K):
    """Nonzero integer vectors with |k|_1 <= K in graded lex order."""
    out = []
    for norm in range(1, K + 1):
        level = []

        def rec(prefix, remaining):
            if len(prefix) == m - 1:
                for a in (-remaining, remaining) if remaining else (0,):
                    level.append(tuple(prefix + [a]))
                return
            for a in range(-remaining, remaining + 1):
                rec(prefix + [a], remaining - abs(a))

        rec([], norm)
        key = lambda vec: tuple((abs(a), 0 if a >= 0 else 1) for a in vec)
        out.extend(sorted(set(level), key=key))
    return out


class EquidistReport:
    def __init__(self, verdict, max_fourier, witness_k=None, constant=None, delta=None):
        self.verdict = verdict  # 'equidistributed' | 'obstructed' | 'violation'
        self.max_fourier = max_fourier
        self.witness_k = witness_k
        self.constant = constant
        self.delta = delta

    def to_json(self):
        out = {"verdict": self.verdict, "max_fourier": self.max_fourier, "delta": self.delta}
        if self.witness_k is not None:
            out["witness_k"] = list(self.witness_k)
        if self.constant is not None:
            out["constant"] = f"{self.constant.numerator}/{self.constant.denominator}"
        return out


def _character_average(values):
    """|mean of e(x)| over exact rational phases x, with exact detection of
    the fully-constant case."""
    first = values[0]
    if all(v == first for v in values):
        return 1.0, True
    re = math.fsum(math.cos(2 * math.pi * float(v)) for v in values)
    im = math.fsum(math.sin(2 * math.pi * float(v)) for v in values)
    return abs(complex(re, im)) / len(values), False


def _phase_values(g: TorusPolySeq, k, omega):
    poly = g.dot(k)
    return [poly.evaluate([int(x) for x in n]) % 1 for n in omega]


def constancy_check(k, g: TorusPolySeq, omega):
    """Whether k.g(tau(n)) mod Z is a single value on omega; returns
    (bool, that value as a Fraction in [0,1))."""
    if not omega:
        raise ValueError("empty point set")
    values = _phase_values(g, k, omega)
    first = values[0]
    return all(v == first for v in values), first


def character_search(g: TorusPolySeq, omega, K):
    """First character (graded lex, complexity <= K) constant on omega."""
    for k in frequencies(g.m, K):
        ok, value = constancy_check(k, g, omega)
        if ok:
            return HorizontalCharacter(k), value
    return None, None


def equidist_test(g: TorusPolySeq, omega, delta, K, freq_budget=200000):
    """The torus dichotomy: either every nontrivial character average with
    |k|_1 <= K is at most delta (delta-equidistributed at budget K), or an
    exactly-constant character exists (obstructed); a large average without
    an exact obstruction raises DichotomyViolation."""
    omega = [tuple(int(x) for x in n) for n in omega]
    if not omega:
        raise ValueError("empty point set")
    freqs = frequencies(g.m, K)
    if len(freqs) > freq_budget:
        raise BudgetExceeded(f"{len(freqs)} frequencies exceed budget")
    max_fourier = 0.0
    argmax = None
    best_const = None
    for k in freqs:
        val, is_const = _character_average(_phase_values(g, k, omega))
        if val > max_fourier + 1e-15:
            max_fourier = val
            argmax = k
        if is_const and best_const is None:
            best_const = k
    if best_const is not None:
        ok, value = constancy_check(best_const, g, omega)
        return EquidistReport("obstructed", max_fourier, best_const, value, delta)
    if max_fourier <= delta + 1e-9:
        return EquidistReport("equidistributed", max_fourier, argmax, None, delta)
    raise DichotomyViolation(
        {"max_fourier": max_fourier, "witness_k": argmax, "delta": delta}
    )


# -- the spherical Weyl dichotomy ------------------------------------------------


def sphere_points(p, d, radius, budget=10**8):
    from .counting import enumerate_zeros
    from .ffcore import PrimeField
    from .quadform import QuadForm

    M = QuadForm.dot_form(PrimeField(p), d, radius=radius)
    return list(map(tuple, enumerate_zeros(M, None, budget).tolist()))


class WeylOutcome:
    def __init__(self, branch, value, constant=None, g1=None, g2=None):
        self.branch = branch  # 'sum_small' | 'constant'
        self.value = value
        self.constant = constant
        self.g1 = g1
        self.g2 = g2

    def to_json(self):
        out = {"branch": self.branch, "abs_sum": self.value}
        if self.constant is not None:
            out["constant"] = f"{self.constant.numerator}/{self.constant.denominator}"
        if self.g1 is not None:
            out["g1"] = self.g1.to_json()
            out["g2"] = self.g2.to_json()
        return out


def _mod_p_residues(g: RatMultiPoly, p: int, points):
    """g(n) mod p over an (N, d) integer array, for integer valued g of
    degree < p (the p-free denominator is cleared and inverted mod p)."""
    import numpy as np

    from .fpoly import FpMultiPoly

    dd = g.denominator_lcm()
    if dd % p == 0:
        raise ValueError("denominator divisible by p")
    cleared = g.scale(dd)
    terms = {e: int(c) % p for e, c in cleared.terms.items()}
    h = FpMultiPoly(p, g.nvars, terms)
    inv = pow(dd, -1, p)
    return (h.eval_array(np.asarray(points, dtype=np.int64)) * inv) % p


def weyl_dichotomy(g: RatMultiPoly, p: int, radius: int, delta: float, budget=10**8, omega=None):
    """Either |E_{n in sphere} e(g(tau n)/p)| <= delta (the value is
    reported), or g(tau n)/p mod Z is a constant a/p on the sphere and the
    footnote certificate g = (n.n - tau(r)) g1 + p g2 + a is produced via
    the lifted Nullstellensatz and verified exactly on the simplex grid.

    omega may carry a precomputed list of sphere points to avoid
    re-enumeration across many calls."""
    if not g.is_integer_valued():
        raise ValueError("weyl_dichotomy requires an integer valued polynomial")
    d = g.nvars
    if omega is None:
        omega = sphere_points(p, d, radius, budget)
    if not omega:
        raise TheoremViolation("empty sphere (rank hypothesis fails)")
    residues = [int(r) for r in _mod_p_residues(g, p, omega)]
    first = residues[0]
    if all(rv == first for rv in residues):
        a = first
        Mz = ZpQuadForm.sphere(p, d, radius)
        shifted = (g - RatMultiPoly.constant(d, a)).scale(Fraction(1, p))
        g1, g2 = lift_nullstellensatz(shifted, Mz)
        vals, _ = _simplex_grid_sum(d, [(1, [Mz.integer_poly(), g1]), (p, [g2]), (a, []), (-1, [g])])
        if (vals != 0).any():
            raise TheoremViolation("Weyl certificate failed to re-verify")
        return WeylOutcome("constant", 1.0, Fraction(a, p), g1, g2)
    counts = [0] * p
    for rv in residues:
        counts[rv] += 1
    value = abs(root_sum(counts, p)) / len(omega)
    if value <= delta:
        return WeylOutcome("sum_small", value)
    raise DichotomyViolation(
        {"abs_sum": value, "delta": delta, "regime_note": f"d={d} vs s+13={g.degree() + 13}"}
    )


# -- Leibman probe ---------------------------------------------------------------


def random_partially_periodic(p, d, s, rng, omega, max_tries=200):
    """A random degree-<= s rational polynomial with p-power denominators
    that is partially p-periodic on omega.  Draws from building blocks that
    are periodic by construction and re-checks symbolically."""
    from .division import ZpQuadForm

    for _ in range(max_tries):
        style = rng.randrange(3)
        if style == 0:
            # Z/p coefficients: p-periodic (degree < p)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = [0] * d
                for _ in range(rng.randint(0, s)):
                    e[rng.randrange(d)] += 1
                terms[tuple(e)] = Fraction(rng.randrange(p), p)
            f = RatMultiPoly(d, terms)
        elif style == 1:
            # p-periodic part plus an integer-valued binomial part and a
            # free rational constant
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                idx = [0] * d
                for _ in range(rng.randint(0, s)):
                    idx[rng.randrange(d)] += 1
                coeffs[tuple(idx)] = rng.randrange(5)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * d
                for _ in range(rng.randint(0, s)):
                    e[rng.randrange(d)] += 1
                terms[tuple(e)] = Fraction(rng.randrange(p), p)
            f = (
                RatMultiPoly.from_binomial(d, coeffs)
                + RatMultiPoly(d, terms)
                + RatMultiPoly.constant(d, Fraction(rng.randrange(1, 7), 7))
            )
        else:
            # multiples of the sphere form (partially periodic, not periodic)
            Mz = ZpQuadForm.sphere(p, d, 1)
            mz = Mz.as_ratpoly()
            w = RatMultiPoly.constant(d, rng.randrange(1, p))
            f = mz * mz if s >= 4 else mz
            f = f * w
        if f.degree() <= s and partial_periodicity_witness(f, omega, p) is None:
            return f
    raise BudgetExceeded("could not generate a partially periodic sample")


def leibman_probe(p, d, radius, s, delta, trials, K, rng, budget=10**8):
    """Statistics of the (delta, K)-dichotomy over random partially
    p-periodic scalar sequences on the sphere; exceptions are recorded with
    full data and flagged when the theorem hypotheses (d >= s + 13) fail."""
    omega = sphere_points(p, d, radius, budget)
    results = {"equidistributed": 0, "obstructed": 0, "violations": []}
    regime_ok = d >= s + 13
    for t in range(trials):
        f = random_partially_periodic(p, d, s, rng, omega)
        g = TorusPolySeq.from_rat_poly(f, s)
        try:
            rep = equidist_test(g, omega, delta, K)
            results[rep.verdict] += 1
        except DichotomyViolation as exc:
            results["violations"].append(
                {"trial": t, "data": exc.data, "sequence": g.to_json(), "regime_ok": regime_ok}
            )
    results["regime_ok"] = regime_ok
    results["trials"] = trials
    return results
