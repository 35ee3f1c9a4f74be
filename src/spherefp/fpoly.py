"""Multivariate polynomials over F_p and over Q, and the correspondence
between them.

Two sparse representations share the exponent-tuple-keyed term map:

  FpMultiPoly  -- coefficients in {0..p-1}, functions F_p^d -> F_p
  RatMultiPoly -- exact Fraction coefficients, functions Z^d -> Q

They also share one arithmetic.  The ring-independent operations (+, -,
negation, scale, *, substitute, compose_linear, shift, delta, partial) are
written once, on _PolyBase, over raw coefficients.  Each ring supplies one
hook, _new(terms, nvars=None), which builds a same-ring polynomial through
its constructor; the constructor reduces every coefficient (c mod p, or
Fraction(c) exactly) and drops the zeros.  Operands must agree in ring, p
and arity, else ArityMismatch.

The bridge is the pair (tau, iota): tau embeds F_p into {0..p-1} inside Z
and iota reduces Z (and rationals with p-free denominator) back to F_p.
A RatMultiPoly f taking values in Z/p induces the FpMultiPoly
iota(p*f(tau(n))); conversely every FpMultiPoly admits a regular lifting
with coefficients in {0, 1/p, ..., (p-1)/p}.  Integer-valuedness and
periodicity questions are decided symbolically through the binomial basis
C(n, i) = prod_j C(n_j, i_j): a polynomial is integer valued exactly when
all its binomial-basis coefficients are integers.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import add
from types import MappingProxyType

import numpy as np

from .ffcore import HypothesisNotMet, MalformedInput, TheoremViolation

# monomial-table cells (monomials x points) held at a time: 512 KB of int64,
# small enough to stay in cache while every level of the table is filled
EVAL_CHUNK_CELLS = 1 << 16
# integers below this are exact in float64, and so is a sum of them whose
# partial sums all stay below it: the one rule for exact float64 products
FLOAT_EXACT = 2**53
# eval_many table plans kept, one per (exponent set, nvars); the probe's
# plan for dense cubics in 14 variables (680 rows) holds about 0.2 MB
CLOSURE_CACHE_SIZE = 16


class ArityMismatch(MalformedInput):
    pass


class ValueRangeError(HypothesisNotMet):
    """A degree, exponent or value range that a hypothesis needs fails,
    such as deg < p or values in Z/p."""


class NotIntegerValued(HypothesisNotMet):
    pass


@lru_cache(maxsize=None)
def _stirling_table(deg, kind):
    """(scale, rows) of one axis of a basis change of degree deg, in integers.

    rows[k], k = 0..deg, holds the nonzero pairs (t, w) expanding one basis
    element; every kind maps rows 0 and 1 to themselves when deg <= 1:

      "S2"  x^k = sum_t w C(x, t)             w = S2(k, t) t!             scale 1
      "s1"  deg! C(x, k) = sum_t w x^t        w = s1(k, t) deg!/k!        scale deg!
      p     C(x, k) = sum_t w x^t over F_p    w = s1(k, t) / k! mod p     scale 1
    """
    s2 = [1]  # S2(k, t) t!, the forward differences of x^k at 0
    s1 = [1]  # s1(k, t), the coefficients of (x)_k = x (x - 1) ... (x - k + 1)
    rows = []
    for k in range(deg + 1):
        if k:
            s2 = [t * (a + b) for t, (a, b) in enumerate(zip(s2 + [0], [0] + s2))]
            s1 = [b - (k - 1) * a for a, b in zip(s1 + [0], [0] + s1)]
        if kind == "S2":
            ws = s2
        elif kind == "s1":
            ws = [s * (factorial(deg) // factorial(k)) for s in s1]
        else:  # a prime p > deg, so k! is a unit
            ws = [s * pow(factorial(k), -1, kind) % kind for s in s1]
        rows.append(tuple((t, w) for t, w in enumerate(ws) if w))
    return (factorial(deg) if kind == "s1" else 1), tuple(rows)


def _expand_axes(coords, nvars, kind):
    """Change the basis of integer coordinates one axis at a time.

    coords maps exponent tuples to Python ints.  On axis j every entry e is
    replaced by the row _stirling_table(deg_j, kind)[e_j], where deg_j is
    the largest e_j present; entries landing on the same tuple are summed
    and zeros dropped, so only the down-sets of the entries are walked.
    Returns (coords, scale): the result is scale times the change of basis
    of the input (scale is the product of the tables' scales).
    """
    scale = 1
    for j in range(nvars):
        deg = max((e[j] for e in coords), default=0)
        if deg <= 1:
            continue
        axis_scale, rows = _stirling_table(deg, kind)
        scale *= axis_scale
        nxt = {}
        get = nxt.get
        for e, c in coords.items():
            head, tail = e[:j], e[j + 1 :]
            for t, w in rows[e[j]]:
                key = head + (t,) + tail
                nxt[key] = get(key, 0) + c * w
        coords = {e: c for e, c in nxt.items() if c}
    return coords, scale


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0 (falling factorial over k!)."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def _linear_terms(coeffs, const):
    """The term map of sum_j coeffs[j] n_j + const, in len(coeffs) variables."""
    nvars = len(coeffs)
    terms = {}
    for j, c in enumerate(coeffs):
        exp = [0] * nvars
        exp[j] = 1
        terms[tuple(exp)] = c
    terms[(0,) * nvars] = const
    return terms


def _quadratic_terms(A, u, v):
    """The term map of (nA)n + u.n + v, in len(A) variables, unreduced:
    each ring's constructor reduces the coefficients and drops the zeros."""
    d = len(A)
    terms = {}
    for i in range(d):
        for j in range(d):
            e = [0] * d
            e[i] += 1
            e[j] += 1
            e = tuple(e)
            terms[e] = terms.get(e, 0) + A[i][j]
    terms.update(_linear_terms(u, v))
    return terms


def _diagonal(d, c):
    """The d x d matrix c I as a list of rows."""
    return [[c if i == j else 0 for j in range(d)] for i in range(d)]


def _random_exponent(rng, nvars, degree):
    """A sparse exponent draw: a total degree t uniform in 0..degree, then t
    variables drawn one at a time, each raised by one."""
    e = [0] * nvars
    for _ in range(rng.randint(0, degree)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def _product(terms1, terms2):
    """The raw term map of the product of two term maps."""
    terms = {}
    get = terms.get
    for e1, c1 in terms1.items():
        for e2, c2 in terms2.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            old = get(e)
            terms[e] = c if old is None else old + c
    return terms


class _PolyBase:
    """Shared sparse-term plumbing and arithmetic; a subclass fixes the
    coefficient ring through its constructor and the _new hook."""

    __slots__ = ("nvars", "terms")

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def iter_terms(self):
        return sorted(self.terms.items())

    def max_var_power(self, j):
        return max((e[j] for e in self.terms), default=0)

    def constant_term(self):
        zero = (0,) * self.nvars
        return self.terms.get(zero, self._zero_coeff())

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.nvars == self.nvars
            and other.terms == self.terms
            and getattr(other, "p", None) == getattr(self, "p", None)
        )

    def __hash__(self):
        return hash((type(self).__name__, self.nvars, tuple(sorted(self.terms.items()))))

    def _monomial_str(self, exp):
        parts = []
        for j, e in enumerate(exp):
            if e == 1:
                parts.append(f"n{j + 1}")
            elif e > 1:
                parts.append(f"n{j + 1}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}<{self.nvars} vars>(0)"
        body = " + ".join(
            f"{c}*{self._monomial_str(e)}" for e, c in self.iter_terms()
        )
        return f"{type(self).__name__}<{self.nvars} vars>({body})"

    # -- arithmetic, shared by both rings --------------------------------------
    # Results are built by self._new, whose constructor reduces the raw
    # coefficients summed and multiplied here.

    def _check(self, other):
        # p is None on Q, so this also rejects mixing the two rings
        if other.nvars != self.nvars or getattr(other, "p", None) != getattr(self, "p", None):
            raise ArityMismatch("mixed ring, p or arity")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return self._new(terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return self._new(terms)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def scale(self, c):
        # c converted as the ring converts a coefficient: a float factor
        # becomes its exact Fraction before it meets a rational coefficient
        c = self._new({(0,) * self.nvars: c}).constant_term()
        return self._new({e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        return self._new(_product(self.terms, other.terms))

    def substitute(self, images):
        """Substitute variable j by the polynomial images[j].

        Each power images[j]^k is built once; every term's product of
        powers is added, times its coefficient, into one term map."""
        if len(images) != self.nvars:
            raise ArityMismatch("substitution arity mismatch")
        nvars = images[0].nvars
        zero = self._new({}, nvars)
        for image in images:
            zero._check(image)
        powers = {}

        def power(j, k):
            if k == 1:
                return images[j].terms
            if (j, k) not in powers:
                prev = _product(power(j, k - 1), images[j].terms)
                powers[j, k] = self._new(prev, nvars).terms
            return powers[j, k]

        one = {(0,) * nvars: 1}
        terms = {}
        get = terms.get
        for e, c in self.terms.items():
            factors = [power(j, k) for j, k in enumerate(e) if k] or [one]
            acc = factors[0]
            for f in factors[1:]:
                acc = _product(acc, f)
            for m, v in acc.items():
                terms[m] = get(m, 0) + c * v
        return self._new(terms, nvars)

    def compose_linear(self, B, shift=None):
        """f(n B + shift) for B given as a list of rows (n is a row vector).

        B has nvars columns and one row per variable of the result.
        """
        d = self.nvars
        if shift is None:
            shift = [0] * d
        if len(shift) != d:
            raise ArityMismatch("shift arity mismatch")
        return self.substitute(
            [self._new(_linear_terms([row[j] for row in B], shift[j]), len(B)) for j in range(d)]
        )

    def shift(self, h):
        """f(n + h) for a constant shift h."""
        return self.compose_linear(_diagonal(self.nvars, 1), h)

    def delta(self, h):
        """Difference operator f(. + h) - f(.)."""
        return self.shift(h) - self

    def partial(self, j):
        """Formal partial derivative in variable j."""
        terms = {}
        for e, c in self.terms.items():
            if e[j]:
                terms[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c * e[j]
        return self._new(terms)


class FpMultiPoly(_PolyBase):
    """Polynomial function F_p^d -> F_p in sparse exponent -> coefficient form."""

    __slots__ = ("p",)

    def __init__(self, p: int, nvars: int, terms=None):
        self.p = p
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = c % p
                if c == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise ArityMismatch("exponent tuple arity mismatch")
                clean[exp] = c
        self.terms = clean

    def _zero_coeff(self):
        return 0

    def _new(self, terms, nvars=None):
        return FpMultiPoly(self.p, self.nvars if nvars is None else nvars, terms)

    # bench/tracing.py times these per ring, under the name in the class's
    # own namespace, so the shared methods are bound here as well
    __mul__ = _PolyBase.__mul__
    compose_linear = _PolyBase.compose_linear

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, p, nvars):
        return cls(p, nvars, {})

    @classmethod
    def _canonical(cls, p, nvars, terms):
        """Wrap a term map that already holds nonzero residues keyed by
        nvars-tuples, without reducing or checking it again."""
        f = cls.__new__(cls)
        f.p, f.nvars, f.terms = p, nvars, terms
        return f

    @classmethod
    def constant(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, p, nvars, j):
        exp = [0] * nvars
        exp[j] = 1
        return cls(p, nvars, {tuple(exp): 1})

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ArityMismatch("point arity mismatch")
        p = self.p
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * pow(x % p, k, p) % p
            total += v
        return total % p

    def eval_array(self, points):
        """Evaluate at an (N, nvars) numpy int array, returning residues."""
        return FpMultiPoly.eval_many([self], points)[0]

    @staticmethod
    def eval_many(polys, points):
        """Evaluate every polynomial of polys at an (N, nvars) int array.

        Returns a (len(polys), N) int64 array of residues in {0..p-1}; row r
        holds polys[r].  All polynomials must share p and nvars.  Every
        monomial they use, and the parents that build it, is filled once
        into a (monomials x points) table, one degree level at a time, by a
        plan cached per exponent set (_monomial_closure); one
        coefficient-matrix product then gives every row, and one reduction
        mod p each value.  A level is reduced mod p only where the bound
        on its entries would make that product inexact in float64.  Points
        are taken mod p first, so any int64 coordinates are valid, and at
        most EVAL_CHUNK_CELLS table cells are held at once.
        """
        points = np.asarray(points, dtype=np.int64)
        if not polys:
            return np.zeros((0, len(points)), dtype=np.int64)
        p, nvars = polys[0].p, polys[0].nvars
        if any(f.p != p or f.nvars != nvars for f in polys):
            raise ArityMismatch("mixed p or arity")
        if points.ndim != 2 or points.shape[1] != nvars:
            raise ArityMismatch("point arity mismatch")
        pos, levels = _monomial_closure(frozenset().union(*(f.terms for f in polys)), nvars)
        nmon = len(pos)
        # past this bound even a table of residues makes the product inexact,
        # so each term is reduced before summing in int64
        in_float = nmon * (p - 1) ** 2 < FLOAT_EXACT
        reduced = _reduced_levels(p, nmon, len(levels))
        coeffs = np.zeros((len(polys), nmon), dtype=np.float64 if in_float else np.int64)
        for r, f in enumerate(polys):
            coeffs[r, [pos[e] for e in f.terms]] = list(f.terms.values())
        n = len(points)
        out = np.empty((len(polys), n), dtype=np.int64)
        step = max(1, EVAL_CHUNK_CELLS // nmon)
        for start in range(0, n, step):
            x = np.ascontiguousarray((points[start : start + step] % p).T)
            tab = np.empty((nmon, x.shape[1]), dtype=np.int64)
            tab[0] = 1  # row 0 is the zero exponent
            for (lo, hi, par, var), red in zip(levels, reduced):
                level = tab[lo:hi]
                np.multiply(tab[par], x[var], out=level)
                if red:
                    level %= p
            if in_float:
                vals = (coeffs @ tab.astype(np.float64)).astype(np.int64)
            else:
                # each product is below p^2 < 2^63 and each reduced term
                # below p, so the sum stays below nmon * p
                vals = np.zeros((len(polys), x.shape[1]), dtype=np.int64)
                for m in range(nmon):
                    vals += coeffs[:, m : m + 1] * tab[m] % p
            out[:, start : start + step] = vals % p
        return out

    def homogeneous_part(self, degree):
        return FpMultiPoly(
            self.p, self.nvars, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient_of_var_power(self, j, k):
        """Coefficient of n_j^k, a polynomial in the remaining variables
        (returned with the same arity; variable j is absent from it)."""
        terms = {}
        for e, c in self.terms.items():
            if e[j] == k:
                e2 = list(e)
                e2[j] = 0
                terms[tuple(e2)] = c
        return FpMultiPoly(self.p, self.nvars, terms)

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(e), "coeff": c} for e, c in self.iter_terms()
            ],
        }

    @classmethod
    def from_json(cls, p, obj):
        terms = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if any(e < 0 or e >= p for e in exp):
                raise ValueRangeError("exponents must lie in {0..p-1}")
            terms[exp] = terms.get(exp, 0) + int(t["coeff"])
        return cls(p, obj["nvars"], terms)


class RatMultiPoly(_PolyBase):
    """Polynomial Z^d -> Q with exact rational coefficients."""

    __slots__ = ()

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, c in terms.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise ArityMismatch("exponent tuple arity mismatch")
                clean[exp] = c
        self.terms = clean

    def _zero_coeff(self):
        return Fraction(0)

    def _new(self, terms, nvars=None):
        return RatMultiPoly(self.nvars if nvars is None else nvars, terms)

    __mul__ = _PolyBase.__mul__  # timed per ring by bench/tracing.py

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, j):
        exp = [0] * nvars
        exp[j] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ArityMismatch("point arity mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * Fraction(x) ** k
            total += v
        return total

    def fiber_map(self, base, p):
        """The polynomial m |-> f(base + p*m) in fresh variables m."""
        return self.compose_linear(_diagonal(self.nvars, p), base)

    def two_variable_period_poly(self, p):
        """(n, m) |-> f(n + p*m) - f(n) on 2*nvars variables."""
        d = self.nvars
        shifted = self.compose_linear(_diagonal(d, 1) + _diagonal(d, p))
        widened = self.compose_linear(_diagonal(d, 1) + _diagonal(d, 0))
        return shifted - widened

    def binomial_coeffs(self):
        """Coefficients in the basis C(n, i) = prod_j C(n_j, i_j).

        f(n) = sum_i c_i C(n, i) exactly; the inverse of from_binomial.
        """
        nums, den = self._binomial_numerators()
        return {e: Fraction(v, den) for e, v in nums.items()}

    def _binomial_numerators(self):
        """(nums, den): the binomial coordinates are nums[i] / den, with den
        the lcm of the coefficient denominators and nums integers."""
        den = self.denominator_lcm()
        nums, _ = _expand_axes(
            {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()},
            self.nvars,
            "S2",
        )
        return nums, den

    @classmethod
    def from_binomial(cls, nvars, coeffs):
        """Build the polynomial sum_i coeffs[i] * C(n, i).

        Every index must have nvars components; an index with a negative
        component contributes 0, since C(n, k) = 0 for k < 0.
        """
        coeffs = {tuple(i): Fraction(c) for i, c in coeffs.items()}
        if any(len(i) != nvars for i in coeffs):
            raise ArityMismatch("binomial index arity mismatch")
        coeffs = {i: c for i, c in coeffs.items() if c and min(i, default=0) >= 0}
        den = lcm(*(c.denominator for c in coeffs.values()))
        nums, scale = _expand_axes(
            {i: c.numerator * (den // c.denominator) for i, c in coeffs.items()}, nvars, "s1"
        )
        return cls(nvars, {e: Fraction(v, den * scale) for e, v in nums.items()})

    def is_integer_valued(self):
        nums, den = self._binomial_numerators()
        return all(n % den == 0 for n in nums.values())

    def is_integer_coefficient(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def takes_z_over_p_values(self, p):
        """True iff f(Z^d) is contained in Z/p (i.e. p*f is integer valued)."""
        nums, den = self._binomial_numerators()
        return all(n * p % den == 0 for n in nums.values())

    def denominator_lcm(self):
        return lcm(*(c.denominator for c in self.terms.values()))

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(e), "coeff": f"{c.numerator}/{c.denominator}"}
                for e, c in self.iter_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        terms = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if any(e < 0 for e in exp):
                raise ValueRangeError("exponents must be nonnegative")
            terms[exp] = terms.get(exp, Fraction(0)) + Fraction(t["coeff"])
        return cls(obj["nvars"], terms)

    def __str__(self):
        return json.dumps(self.to_json())


# -- the tau/iota correspondence on polynomials --------------------------------


def induce(f: RatMultiPoly, p: int) -> FpMultiPoly:
    """The F_p polynomial iota(p * f(tau(n))) induced by a Z/p valued f.

    Computed symbolically: p*f must have integer binomial coefficients
    (this is exactly the Z/p-valuedness check), which are then reduced mod p
    and re-expanded in the monomial basis over F_p.
    """
    if f.degree() >= p:
        raise ValueRangeError("induce requires deg(f) < p")
    coords = f.binomial_coeffs()
    # p * a/b (in lowest terms) is an integer exactly when b divides p
    if any(p % c.denominator for c in coords.values()):
        raise ValueRangeError("polynomial does not take values in Z/p")
    residues = {i: c.numerator * (p // c.denominator) % p for i, c in coords.items()}
    terms, _ = _expand_axes({i: r for i, r in residues.items() if r}, f.nvars, p)
    return FpMultiPoly(p, f.nvars, terms)


def regular_lift(F: FpMultiPoly) -> RatMultiPoly:
    """The lifting of F with coefficients in {0, 1/p, ..., (p-1)/p}."""
    if F.degree() >= F.p:
        raise ValueRangeError("regular_lift requires deg(F) < p")
    p = F.p
    return RatMultiPoly(F.nvars, {e: Fraction(c % p, p) for e, c in F.terms.items()})


def p_expand(f: RatMultiPoly, p: int):
    """Split (1/p) f = f1 + (1/p) f2 for integer valued f of degree < p.

    f1 is integer valued, f2 has integer coefficients, both of degree at
    most deg(f).  Requires that f is integer valued.
    """
    if not f.is_integer_valued():
        raise NotIntegerValued("p_expand requires an integer valued polynomial")
    if f.degree() >= p:
        raise ValueRangeError("p_expand requires deg(f) < p")
    if f.is_zero():
        return RatMultiPoly.zero(f.nvars), RatMultiPoly.zero(f.nvars)
    q = f.denominator_lcm()
    if q % p == 0:
        # cannot happen for integer valued f of degree < p
        raise ValueRangeError("denominator divisible by p")
    qstar = pow(q, -1, p)
    f2_terms = {}
    for e, c in f.terms.items():
        a = c.numerator * (q // c.denominator)  # coefficient of q*f, integer
        f2_terms[e] = (qstar * a) % p
    f2 = RatMultiPoly(f.nvars, {e: Fraction(v) for e, v in f2_terms.items()})
    f1 = (f - f2).scale(Fraction(1, p))
    if not f1.is_integer_valued():
        raise TheoremViolation("p-expansion part f1 is not integer valued")
    return f1, f2


def compose_liftings(outer: RatMultiPoly, inner: RatMultiPoly, p: int) -> RatMultiPoly:
    """outer(p * inner(n)), a lifting of the composed F_p polynomials.

    Valid only below the sqrt(p) degree threshold; beyond it the behavior
    of composed liftings is unspecified, so the call rejects.
    """
    if outer.nvars != 1:
        raise ArityMismatch("outer lifting must be univariate")
    if outer.degree() ** 2 > p or inner.degree() ** 2 > p:
        raise ValueRangeError("composition requires degrees at most sqrt(p)")
    return outer.substitute([inner.scale(p)])


def is_p_periodic(f: RatMultiPoly, p: int) -> bool:
    """True iff f(n + p m) - f(n) is an integer for all n, m in Z^d.

    Decided symbolically: the two-variable polynomial (n, m) -> f(n+pm)-f(n)
    must have integer binomial coefficients.
    """
    if f.degree() >= p:
        raise ValueRangeError("is_p_periodic requires deg(f) < p")
    g = f.two_variable_period_poly(p)
    return g.is_integer_valued()


def partial_periodicity_witness(f: RatMultiPoly, omega, p: int):
    """(n0, index) violating partial p-periodicity, n0 the lexicographically
    least violating point of omega (rows in any order), or None."""
    return _first_noninteger_fiber(f, omega, p, skip_constant=True)


# -- simplex-grid kernels: basis indices, grid sums, fiber tables --------------


@lru_cache(maxsize=None)
def _binom_basis_indices(nvars, max_degree):
    """Exponent tuples of total degree <= max_degree, sorted: the simplex
    grid that indexes binomial-basis coordinates up to that degree.  Cached
    per (nvars, max_degree) as an immutable tuple."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    if max_degree < 0:
        return ()
    rec([], max_degree)
    out.sort()
    return tuple(out)


def _reduced_levels(p, nmon, depth):
    """Which of the degree levels 1..depth of an eval_many table, on nmon
    monomials, are reduced mod p.

    The coefficient product is exact in float64 while each of its partial
    sums stays below 2^53, that is while nmon * (p - 1) * (largest table
    entry) < 2^53.  The entries of level t are at most the bound of level
    t - 1 times p - 1 (row 0 holds 1).  A level whose bound would reach the
    limit is reduced, and its bound becomes p - 1.  Once
    nmon * (p - 1)^2 >= 2^53 that is every level.
    """
    limit = FLOAT_EXACT // (nmon * (p - 1))
    out = []
    bound = 1
    for _ in range(depth):
        bound *= p - 1
        out.append(bound >= limit)
        if bound >= limit:
            bound = p - 1
    return out


def _monomial_closure(exps, nvars):
    """The table plan behind FpMultiPoly.eval_many for the exponents exps,
    in any order: _closure_plan of their set."""
    return _closure_plan(frozenset(exps), nvars)


@lru_cache(maxsize=CLOSURE_CACHE_SIZE)
def _closure_plan(exps, nvars):
    """The plan of _monomial_closure, cached per (exponent set, nvars),
    CLOSURE_CACHE_SIZE plans at most.

    Closes exps and the zero exponent under taking parents, where the
    parent of e != 0 is e with one unit of its last nonzero variable
    dropped, and sorts the result by (total degree, exponent).  Returns
    (pos, levels): pos maps each exponent to its row, the zero exponent
    to row 0, and levels holds one (lo, hi, parents, variables) per total
    degree t >= 1, where rows lo..hi-1 are the exponents of degree t and
    row lo + i is the row parents[i] times the variable variables[i].  pos
    is a read-only view, levels a tuple and its arrays read-only, so no
    caller can write through a cached plan.
    """
    zero = (0,) * nvars
    parent = dict.fromkeys(exps)
    parent[zero] = None
    todo = [e for e in parent if e != zero]
    while todo:
        e = todo.pop()
        j = max(i for i, k in enumerate(e) if k)
        par = e[:j] + (e[j] - 1,) + e[j + 1 :]
        parent[e] = (par, j)
        if par not in parent:
            parent[par] = None
            todo.append(par)
    monos = sorted(parent, key=lambda e: (sum(e), e))
    pos = {e: m for m, e in enumerate(monos)}
    degs = [sum(e) for e in monos]
    levels = []
    for t in range(1, degs[-1] + 1):
        lo, hi = bisect_left(degs, t), bisect_right(degs, t)
        par, var = zip(*(parent[e] for e in monos[lo:hi]))
        rows = np.array([pos[e] for e in par], dtype=np.intp)
        var = np.array(var, dtype=np.intp)
        rows.flags.writeable = var.flags.writeable = False
        levels.append((lo, hi, rows, var))
    return MappingProxyType(pos), tuple(levels)


@lru_cache(maxsize=None)
def _grid_powers(nvars, deg):
    """powers[j, k, t] = grid[t][j] ** k for k = 0..deg on the simplex grid
    _binom_basis_indices(nvars, deg), read-only.  Every entry is at most
    deg^deg, so the table is int64 while that is below 2^63, else Python
    integers.  Cached per (nvars, deg)."""
    cols = np.array(_binom_basis_indices(nvars, deg), dtype=np.int64).reshape(-1, nvars).T
    dtype = np.int64 if deg**deg < 2**63 else object
    powers = np.empty((nvars, deg + 1, cols.shape[1]), dtype=dtype)
    powers[:, 0] = 1
    for k in range(1, deg + 1):
        powers[:, k] = powers[:, k - 1] * cols.astype(dtype)
    powers.flags.writeable = False
    return powers


def _simplex_grid_sum(nvars, summands):
    """Decide an identity sum_s c_s prod(factors_s) = 0 (or = constant)
    exactly, on integer values instead of polynomial products.

    summands is a list of (c, factors): c an int or Fraction, factors a list
    of RatMultiPoly in nvars variables (an empty list is the constant 1).
    D is the largest total degree of a nonzero summand, the sum of its
    factors' degrees (0 when every summand is zero).  Each factor is
    evaluated as its cleared integer numerator on the grid
    _binom_basis_indices(nvars, D), and the summands are combined over one
    common denominator.  Returns (values, den): the sum at grid[t] is
    values[t] / den, with den > 0.

    The sum has degree <= D, and a polynomial of degree <= D is determined
    by its values on that grid: its coefficient of C(n, g) is the forward
    difference Delta^g at the origin, which reads only grid points.  So the
    sum is the zero polynomial exactly when every value is 0, and a constant
    exactly when every value equals values[0], its value at the origin.

    Arithmetic is int64 where a bound shows it exact, else Python integers,
    in two steps: the factor values are bounded by their coefficients
    (a monomial of degree k is at most D^k on the grid), and the products
    and their sum by the largest factor values actually found.
    """
    live = [(Fraction(c), fs) for c, fs in summands if c and all(fs)]
    factors = list({id(f): f for _, fs in live for f in fs}.values())
    row = {id(f): r for r, f in enumerate(factors)}
    dens, sizes, nums, exps, starts = [], [], [], [], []
    for f in factors:
        den = f.denominator_lcm()
        cleared = [c.numerator * (den // c.denominator) for c in f.terms.values()]
        dens.append(den)
        sizes.append(sum(map(abs, cleared)))
        starts.append(len(nums))
        nums += cleared
        exps += f.terms
    e = np.array(exps, dtype=np.intp).reshape(-1, nvars)
    fdeg = np.maximum.reduceat(e.sum(axis=1), starts).tolist() if factors else []
    deg = max((sum(fdeg[row[id(f)]] for f in fs) for _, fs in live), default=0)
    powers = _grid_powers(nvars, deg)
    vals = np.zeros((0, powers.shape[2]), dtype=np.int64)
    if factors:
        bound = max(s * deg**k for s, k in zip(sizes, fdeg))
        dtype = np.int64 if bound < 2**63 else object
        mono = powers[0, e[:, 0]]
        for j in range(1, nvars):
            mono = mono * powers[j, e[:, j]]
        terms = np.array(nums, dtype=dtype)[:, None] * mono.astype(dtype, copy=False)
        vals = np.add.reduceat(terms, starts, axis=0)
    sden = [c.denominator * prod(dens[row[id(f)]] for f in fs) for c, fs in live]
    den = lcm(*sden)
    weights = [c.numerator * (den // d) for (c, _), d in zip(live, sden)]
    top = np.abs(vals).max(axis=1, initial=0).tolist()
    bound = sum(abs(w) * prod(top[row[id(f)]] for f in fs) for w, (_, fs) in zip(weights, live))
    if bound >= 2**63:
        vals = vals.astype(object)
    total = np.zeros(powers.shape[2], dtype=vals.dtype)
    for w, (_, fs) in zip(weights, live):
        term = w
        for f in fs:
            term = term * vals[row[id(f)]]
        total += term
    return total, den


def _verify_grid_identity(nvars, summands, what, constant=False):
    """Re-verify a certificate's identity sum_s c_s prod(factors_s) = 0, or
    = a constant with constant, on the simplex grid (_simplex_grid_sum):
    raises TheoremViolation("<what> failed to re-verify") when it does not
    hold, and returns the constant, a Fraction (0 for an identity = 0)."""
    vals, den = _simplex_grid_sum(nvars, summands)
    if (vals != (vals[0] if constant else 0)).any():
        raise TheoremViolation(f"{what} failed to re-verify")
    return Fraction(int(vals[0]), den)


@lru_cache(maxsize=None)
def _fiber_axis_table(p, deg):
    """The fiber of one monomial axis, for every residue: K[n0, k, i] =
    Delta^i of m -> (n0 + p m)^k at m = 0, that is
    sum_r (-1)^(i-r) C(i, r) (n0 + p r)^k, for n0 in 0..p-1 and k, i in
    0..deg (0 when i > k).  Returns (table, table64, top), read-only:
    table[n0, k (deg + 1) + i] = K[n0, k, i] in Python integers, table64
    the same in int64 with every entry of 2^63 or more stored as 0, and
    top[k] = max over n0, i of |K[n0, k, i]|.  Cached per (p, deg).

    An entry stored as 0 is never read from table64: a term of exponent e
    reads only rows k = e_j, and its top[e_j] enters the int64 bound of
    _fiber_coefficient_table.
    """
    span = range(deg + 1)
    rows = [
        [sum((-1) ** (i - r) * comb(i, r) * (n0 + p * r) ** k for r in range(i + 1))
         for k in span for i in span]
        for n0 in range(p)
    ]
    top = [max(abs(x) for row in rows for x in row[k * (deg + 1) : (k + 1) * (deg + 1)]) for k in span]
    table = np.array(rows, dtype=object)
    table64 = np.array([[x if abs(x) < 2**63 else 0 for x in row] for row in rows], dtype=np.int64)
    table.flags.writeable = table64.flags.writeable = False
    return table, table64, top


@lru_cache(maxsize=None)
def _fiber_pair_plan(nvars, deg):
    """Every pair (e, g) with g <= e componentwise on the simplex grid
    _binom_basis_indices(nvars, deg), sorted by g's grid position.  Returns
    (pos, epos, gpos, cols): pos maps each exponent to its grid position;
    the read-only arrays epos and gpos hold the positions of e and g per
    pair, and cols[j] = e_j (deg + 1) + g_j, the column of
    _fiber_axis_table that axis j reads.  Cached per (nvars, deg)."""
    grid = _binom_basis_indices(nvars, deg)
    pos = {e: t for t, e in enumerate(grid)}
    pairs = [
        (g, tuple(map(add, g, h))) for g in grid for h in _binom_basis_indices(nvars, deg - sum(g))
    ]
    epos = np.array([pos[e] for _, e in pairs], dtype=np.intp)
    gpos = np.array([pos[g] for g, _ in pairs], dtype=np.intp)
    cols = np.array([[e[j] * (deg + 1) + g[j] for g, e in pairs] for j in range(nvars)], dtype=np.intp)
    for arr in (epos, gpos, cols):
        arr.flags.writeable = False
    return pos, epos, gpos, cols


def _fiber_coefficient_table(f: RatMultiPoly, base_points, p):
    """Binomial-basis coefficients of every fiber map m -> f(n0 + p m).

    The denominators of f are cleared by den = lcm of its coefficient
    denominators, c_e = den f_e.  Monomials and forward differences both
    factor over the axes, so the coefficient of C(m, g) in the fiber of
    den f at n0 is sum over the terms e >= g of c_e prod_j K[n0_j, e_j, g_j],
    with K the per-axis table of _fiber_axis_table.  Each pair (e, g) of
    _fiber_pair_plan whose e is a term of f is one product of table columns
    over the base points, and np.add.reduceat sums each g's pairs.

    Returns (grid, numerators, den), grid = _binom_basis_indices(nvars,
    deg f): the coefficient of C(m, grid[t]) in the fiber at base_points[b]
    is numerators[b, t] / den, so it is an integer exactly when den divides
    numerators[b, t].  The table is int64 while sum_e |c_e| prod_j top[e_j]
    (top as in _fiber_axis_table), which bounds every partial product and
    sum, and den are below 2^63, else Python integers.  Base points must
    lie in [0, p)^nvars.
    """
    d = f.nvars
    deg = max(f.degree(), 0)
    grid = _binom_basis_indices(d, deg)
    den = f.denominator_lcm()
    base = _base_rows(base_points, d, p)
    table, table64, top = _fiber_axis_table(p, deg)
    pos, epos, gpos, cols = _fiber_pair_plan(d, deg)
    cleared = [c.numerator * (den // c.denominator) for c in f.terms.values()]
    bound = sum(abs(c) * prod(top[k] for k in e) for e, c in zip(f.terms, cleared))
    dtype = np.int64 if max(bound, den) < 2**63 else object
    out = np.zeros((len(base), len(grid)), dtype=dtype)
    if not cleared:
        return grid, out, den
    coef = np.zeros(len(grid), dtype=dtype)
    coef[[pos[e] for e in f.terms]] = cleared
    sel = np.flatnonzero(coef[epos])
    tab = table64 if dtype is np.int64 else table
    vals = coef[epos[sel]] * tab[:, cols[0, sel]][base[:, 0]]
    for j in range(1, d):
        vals *= tab[:, cols[j, sel]][base[:, j]]
    gsel = gpos[sel]
    starts = np.flatnonzero(np.diff(gsel, prepend=-1))
    out[:, gsel[starts]] = np.add.reduceat(vals, starts, axis=1)
    return grid, out, den


def _base_rows(base_points, nvars, p):
    """Base points as an (N, nvars) int64 array; each must lie in [0, p)^nvars."""
    base = np.asarray(base_points, dtype=np.int64).reshape(-1, nvars)
    if base.size and (base.min() < 0 or base.max() >= p):
        raise ValueRangeError("fiber base points must lie in [0, p)^nvars")
    return base


def _first_noninteger_fiber(f, base_points, p, skip_constant=False):
    """(n0, index) of a non-integral fiber binomial coefficient: n0 the
    lexicographically least base point with one (the first row of an
    enumerator's output), index the first in grid order.  Base points are
    int rows or tuples, in any order; n0 is a tuple of Python ints.

    The rows are sorted once and their fiber tables built in chunks of at
    most EVAL_CHUNK_CELLS cells, in order, so the scan stops at the first
    chunk that holds a non-integral fiber.  When a binomial denominator of f
    has a prime l != p, every fiber fails, so only the first chunk is built
    (the argument is in division._solve_certificate_first)."""
    if f.is_zero() or len(base_points) == 0:
        return None
    base = _base_rows(base_points, f.nvars, p)
    base = base[np.lexsort(base.T[::-1])]
    step = max(1, EVAL_CHUNK_CELLS // len(_binom_basis_indices(f.nvars, max(f.degree(), 0))))
    for start in range(0, len(base), step):
        chunk = base[start : start + step]
        grid, numerators, den = _fiber_coefficient_table(f, chunk, p)
        bad = numerators % den != 0
        if skip_constant:
            bad[:, 0] = False  # grid[0] is the zero index
        rows = np.flatnonzero(bad.any(axis=1))
        if len(rows):
            return tuple(map(int, chunk[rows[0]])), grid[int(np.argmax(bad[rows[0]]))]
    return None
