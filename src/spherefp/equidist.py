"""Equidistribution testing for torus-valued polynomial sequences along
spherical sets, and the spherical Weyl dichotomy with divisibility
certificates.

Targets are tori R^m / Z^m (the abelian specialization), where failure of
delta-equidistribution reduces to finitely many character sums: the test
scans integer frequency vectors k with 0 < |k|_1 <= K in graded
lexicographic order and reports the largest Fourier average.  An
obstruction is only declared when the composed character is exactly
constant on the set, which makes |E e(k.g)| = 1 an algebraic identity.

Phases are integer residues.  With Q the lcm of g's coefficient
denominators, k.g(n) = r/Q mod Z with r = (B (A k mod Q))_n mod Q, where A
holds Q times g's binomial-basis coefficients and B[n, i] = C(n, i) mod Q
is built once per point set from one per-axis table of binomials.  Weyl
sums read their residues mod p from the same table.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .counting import DEFAULT_BUDGET, RankHypothesisFailed, _check_count, _check_delta, root_sum
from .division import ZpQuadForm, lift_nullstellensatz
from .ffcore import BudgetExceeded, HypothesisNotMet, MalformedInput, TheoremViolation
from .fpoly import ArityMismatch, NotIntegerValued, RatMultiPoly, ValueRangeError
from .fpoly import _random_exponent, _verify_grid_identity, binom_int, partial_periodicity_witness

FREQ_BUDGET = 200000  # frequency vectors one equidist_test may scan


class DichotomyViolation(TheoremViolation):
    """Large sum without exact constancy; expected only outside the
    theorem regime (d < s + 13 or p too small)."""

    def __init__(self, data):
        super().__init__(str(data))
        self.data = data


class TorusPolySeq:
    """Degree-<= s polynomial map Z^d -> R^m/Z^m in the binomial basis.

    coeffs: map from index tuples i (|i| <= s) to rational vectors in Q^m.
    """

    def __init__(self, d, m, s, coeffs):
        if d < 1 or m < 1 or s < 0:
            raise MalformedInput(f"need d, m >= 1 and s >= 0, got d = {d}, m = {m}, s = {s}")
        self.d = d
        self.m = m
        self.s = s
        self.coeffs = {}
        for idx, vec in coeffs.items():
            idx = tuple(idx)
            if len(idx) != d:
                raise ArityMismatch("index arity mismatch")
            if sum(idx) > s:
                raise MalformedInput("coefficient beyond the filtration degree")
            vec = tuple(Fraction(x) for x in vec)
            if len(vec) != m:
                raise MalformedInput("coefficient dimension mismatch")
            if any(vec):
                self.coeffs[idx] = vec

    @classmethod
    def from_rat_poly(cls, f: RatMultiPoly, s=None):
        coeffs = {idx: (c,) for idx, c in f.binomial_coeffs().items()}
        degree = max((sum(i) for i in coeffs), default=0)
        return cls(f.nvars, 1, s if s is not None else degree, coeffs)

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
                raise MalformedInput("cannot infer arity of an empty sequence")
            d = len(next(iter(coeffs)))
        return cls(d, obj["m"], obj["s"], coeffs)


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


def frequency_count(m, K):
    """len(frequencies(m, K)) in closed form: a vector with exactly j
    nonzero entries has C(m, j) supports, 2^j sign patterns and C(K, j)
    positive j-tuples of sum at most K."""
    return sum(2**j * math.comb(m, j) * math.comb(K, j) for j in range(1, m + 1))


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


def _binomial_residue_table(points, indices, d, Q):
    """B[b, t] = prod_j C(n_bj, i_tj) mod Q for the rows n_b of points
    (integers of any sign and size, d per row) and the indices i_t.

    One per-axis table holds C(x, i) mod Q for every distinct coordinate x
    and every i up to the largest index entry.  Each axis gathers the
    table's columns i_tj first and then the rows of its coordinates, as
    division's fiber table does.  B is int64 while len(indices) Q^2 < 2^63,
    which keeps B times a vector of residues mod Q exact, else Python
    integers."""
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ArityMismatch("point arity mismatch")
    values, where = np.unique(pts, return_inverse=True)
    where = where.reshape(pts.shape)
    idx = np.array(indices, dtype=np.intp).reshape(len(indices), d)
    dtype = np.int64 if len(indices) * Q * Q < 2**63 else object
    top = int(idx.max(initial=0))
    table = np.array([[binom_int(int(x), i) % Q for i in range(top + 1)] for x in values], dtype=dtype)
    out = table[:, idx[:, 0]][where[:, 0]]
    for j in range(1, d):
        out = out * table[:, idx[:, j]][where[:, j]] % Q
    return out


def _phase_residues(g: TorusPolySeq, omega):
    """(Q, residues) with Q the lcm of g's coefficient denominators:
    k.g(n) mod Z is residues(k)[b] / Q at the b-th point n of omega.  The
    table B is built once; each frequency is one product B (A k mod Q),
    where A holds Q times g's binomial-basis coefficients."""
    if len(omega) == 0:
        raise HypothesisNotMet("empty point set")
    Q = math.lcm(*(c.denominator for vec in g.coeffs.values() for c in vec))
    A = [[c.numerator * (Q // c.denominator) for c in vec] for vec in g.coeffs.values()]
    B = _binomial_residue_table(omega, list(g.coeffs), g.d, Q)

    def residues(k):
        if len(k) != g.m:
            raise ArityMismatch("frequency arity mismatch")
        ak = [sum(a * int(kj) for a, kj in zip(row, k)) % Q for row in A]
        return B @ np.array(ak, dtype=B.dtype) % Q

    return Q, residues


def _character_average(residues, Q):
    """|mean of e(r/Q)| over integer residues r, with exact detection of
    the fully-constant case.  cos and sin are taken once per distinct
    residue; fsum of the same multiset of floats is exact, so the result
    does not depend on the order of the points.  r / Q is an int true
    division, correctly rounded like the float of r/Q in lowest terms."""
    distinct, where = np.unique(residues, return_inverse=True)
    if len(distinct) == 1:
        return 1.0, True
    turns = [2 * math.pi * (int(r) / Q) for r in distinct]
    re = math.fsum(np.array([math.cos(x) for x in turns])[where].tolist())
    im = math.fsum(np.array([math.sin(x) for x in turns])[where].tolist())
    return abs(complex(re, im)) / len(residues), False


def constancy_check(k, g: TorusPolySeq, omega):
    """Whether k.g(tau(n)) mod Z is a single value on omega; returns
    (bool, that value as a Fraction in [0,1))."""
    Q, residues = _phase_residues(g, omega)
    r = residues(k)
    return bool((r == r[0]).all()), Fraction(int(r[0]), Q)


def equidist_test(g: TorusPolySeq, omega, delta, K):
    """The torus dichotomy: either every nontrivial character average with
    |k|_1 <= K is at most delta (delta-equidistributed at budget K), or an
    exactly-constant character exists (obstructed); a large average without
    an exact obstruction raises DichotomyViolation."""
    _check_count("K", K, 1)
    _check_delta(delta)
    if len(omega) == 0:
        raise HypothesisNotMet("empty point set")
    count = frequency_count(g.m, K)
    if count > FREQ_BUDGET:
        raise BudgetExceeded(f"{count} frequencies exceed budget")
    freqs = frequencies(g.m, K)
    Q, residues = _phase_residues(g, omega)
    max_fourier = 0.0
    argmax = None
    best_const = None
    for k in freqs:
        r = residues(k)
        val, is_const = _character_average(r, Q)
        if val > max_fourier + 1e-15:
            max_fourier = val
            argmax = k
        if is_const and best_const is None:
            best_const, value = k, Fraction(int(r[0]), Q)
    if best_const is not None:
        return EquidistReport("obstructed", max_fourier, best_const, value, delta)
    if max_fourier <= delta + 1e-9:
        return EquidistReport("equidistributed", max_fourier, argmax, None, delta)
    raise DichotomyViolation(
        {"max_fourier": max_fourier, "witness_k": argmax, "delta": delta}
    )


# -- the spherical Weyl dichotomy ------------------------------------------------


def sphere_points(p, d, radius, budget=DEFAULT_BUDGET):
    """tau(V(n.n - radius)) over F_p: the sphere's integer points in [0, p)^d,
    as ZpQuadForm.sphere_points' (N, d) int64 rows in lex order."""
    return ZpQuadForm.sphere(p, d, radius).sphere_points(budget)


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


def weyl_dichotomy(g: RatMultiPoly, p: int, radius: int, delta: float, budget=DEFAULT_BUDGET, omega=None):
    """Either |E_{n in sphere} e(g(tau n)/p)| <= delta (the value is
    reported), or g(tau n)/p mod Z is a constant a/p on the sphere and the
    footnote certificate g = (n.n - tau(r)) g1 + p g2 + a is produced via
    the lifted Nullstellensatz and verified exactly on the simplex grid.

    omega may carry the sphere's points, as sphere_points returns them, to
    avoid re-enumeration across many calls; without it the sphere is read
    chunk by chunk (ZpQuadForm.sphere_chunks) and only the p residue counts
    are kept, so no more than one chunk is held.  The counts are integers,
    so the value does not depend on the chunking."""
    _check_delta(delta)
    nums, den = g._binomial_numerators()
    if any(n % den for n in nums.values()):
        raise NotIntegerValued("weyl_dichotomy requires an integer valued polynomial")
    d = g.nvars
    chunks = [omega] if omega is not None else ZpQuadForm.sphere(p, d, radius).sphere_chunks(budget)
    if den % p == 0 and any(len(chunk) for chunk in chunks):  # a nonempty sphere
        raise ValueRangeError("denominator divisible by p")
    # g(n) = sum_i (nums[i] / den) C(n, i) with integer binomial coordinates
    coords = [n // den % p for n in nums.values()]
    counts = np.zeros(p, dtype=np.int64)
    for chunk in chunks:
        if len(chunk):
            table = _binomial_residue_table(chunk, list(nums), d, p)
            r = table @ np.array(coords, dtype=table.dtype) % p
            counts += np.bincount(r.astype(np.int64), minlength=p)
    if not counts.any():
        raise RankHypothesisFailed("empty sphere (rank hypothesis fails)")
    phases = np.flatnonzero(counts)
    if len(phases) == 1:
        a = int(phases[0])
        Mz = ZpQuadForm.sphere(p, d, radius)
        shifted = (g - RatMultiPoly.constant(d, a)).scale(Fraction(1, p))
        g1, g2 = lift_nullstellensatz(shifted, Mz)
        _verify_grid_identity(d, [(1, [Mz.integer_poly(), g1]), (p, [g2]), (a, []), (-1, [g])], "Weyl certificate")
        return WeylOutcome("constant", 1.0, Fraction(a, p), g1, g2)
    value = abs(root_sum(counts.tolist(), p)) / int(counts.sum())
    if value <= delta:
        return WeylOutcome("sum_small", value)
    raise DichotomyViolation(
        {"abs_sum": value, "delta": delta, "regime_note": f"d={d} vs s+13={g.degree() + 13}"}
    )


# -- Leibman probe ---------------------------------------------------------------


def random_partially_periodic(p, d, s, rng, omega):
    """A random degree-<= s rational polynomial with p-power denominators
    that is partially p-periodic on omega.  Draws from building blocks that
    are periodic by construction and re-checks symbolically."""
    for _ in range(200):
        style = rng.randrange(3)
        if style == 0:
            # Z/p coefficients: p-periodic (degree < p)
            terms = {
                _random_exponent(rng, d, s): Fraction(rng.randrange(p), p) for _ in range(rng.randint(1, 6))
            }
            f = RatMultiPoly(d, terms)
        elif style == 1:
            # p-periodic part plus an integer-valued binomial part and a
            # free rational constant
            coeffs = {_random_exponent(rng, d, s): rng.randrange(5) for _ in range(rng.randint(1, 6))}
            terms = {
                _random_exponent(rng, d, s): Fraction(rng.randrange(p), p) for _ in range(rng.randint(1, 4))
            }
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


def leibman_probe(p, d, radius, s, delta, trials, K, rng, budget=DEFAULT_BUDGET):
    """Statistics of the (delta, K)-dichotomy over random partially
    p-periodic scalar sequences on the sphere; exceptions are recorded with
    full data and flagged when the theorem hypotheses (d >= s + 13) fail."""
    if d < 1 or s < 1:
        raise MalformedInput(f"leibman_probe needs d, s >= 1, got d = {d}, s = {s}")
    _check_count("K", K, 1)
    _check_delta(delta)
    # each draw is re-checked by partial_periodicity_witness, whose fiber
    # plan holds a pair (e, g <= e) per exponent pair of total degree <= s
    pairs = math.comb(2 * d + s, 2 * d)
    if pairs > budget:
        raise BudgetExceeded(f"fiber pair plan of size {pairs} exceeds budget {budget}")
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
