"""Multivariate polynomials over F_p and over Q, and the correspondence
between them.

Two sparse representations share the exponent-tuple-keyed term map:

  FpMultiPoly  -- coefficients in {0..p-1}, functions F_p^d -> F_p
  RatMultiPoly -- exact Fraction coefficients, functions Z^d -> Q

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
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from .ffcore import PrimeField, TheoremViolation


class ArityMismatch(ValueError):
    pass


class ValueRangeError(ValueError):
    """A rational polynomial does not take values in Z/p as required."""


class NotIntegerValued(ValueError):
    pass


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _stirling1_signed(n: int, k: int) -> int:
    # falling factorial (x)_n = sum_k s1(n,k) x^k
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return _stirling1_signed(n - 1, k - 1) - (n - 1) * _stirling1_signed(n - 1, k)


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    return 1 if n <= 1 else n * _factorial(n - 1)


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0 (falling factorial over k!)."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // _factorial(k)


class _PolyBase:
    """Shared sparse-term plumbing; subclasses fix the coefficient domain."""

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

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, p, nvars):
        return cls(p, nvars, {})

    @classmethod
    def constant(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, p, nvars, j):
        exp = [0] * nvars
        exp[j] = 1
        return cls(p, nvars, {tuple(exp): 1})

    @classmethod
    def from_linear(cls, p, coeffs, const=0):
        nvars = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            exp = [0] * nvars
            exp[j] = 1
            terms[tuple(exp)] = c
        terms[(0,) * nvars] = const
        return cls(p, nvars, terms)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.p != other.p or self.nvars != other.nvars:
            raise ArityMismatch("mixed p or arity")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return FpMultiPoly(self.p, self.nvars, terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return FpMultiPoly(self.p, self.nvars, terms)

    def __neg__(self):
        return FpMultiPoly(self.p, self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        return FpMultiPoly(self.p, self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        p = self.p
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = (terms.get(e, 0) + c1 * c2) % p
        return FpMultiPoly(p, self.nvars, terms)

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
        p = self.p
        n = points.shape[0]
        out = np.zeros(n, dtype=np.int64)
        for e, c in self.terms.items():
            v = np.full(n, c, dtype=np.int64)
            for j, k in enumerate(e):
                for _ in range(k):
                    v = (v * points[:, j]) % p
            out = (out + v) % p
        return out

    def delta(self, h):
        """Difference operator f(. + h) - f(.)."""
        return self.shift(h) - self

    def shift(self, h):
        """f(n + h) for a constant shift h in F_p^d."""
        if len(h) != self.nvars:
            raise ArityMismatch("shift arity mismatch")
        return self.substitute(
            [FpMultiPoly.variable(self.p, self.nvars, j) + FpMultiPoly.constant(self.p, self.nvars, h[j]) for j in range(self.nvars)]
        )

    def substitute(self, images):
        """Substitute variable j by the polynomial images[j]."""
        if len(images) != self.nvars:
            raise ArityMismatch("substitution arity mismatch")
        nvars = images[0].nvars
        out = FpMultiPoly.zero(self.p, nvars)
        pow_cache = {}
        for e, c in self.terms.items():
            term = FpMultiPoly.constant(self.p, nvars, c)
            for j, k in enumerate(e):
                if k == 0:
                    continue
                key = (j, k)
                if key not in pow_cache:
                    acc = images[j]
                    for _ in range(k - 1):
                        acc = acc * images[j]
                    pow_cache[key] = acc
                term = term * pow_cache[key]
            out = out + term
        return out

    def compose_linear(self, B, shift=None):
        """f(n B + shift) for B given as a list of rows (n is a row vector)."""
        d = self.nvars
        p = self.p
        if shift is None:
            shift = [0] * d
        images = []
        for j in range(d):
            coeffs = [B[k][j] for k in range(d)]
            images.append(FpMultiPoly.from_linear(p, coeffs, shift[j]))
        return self.substitute(images)

    def partial(self, j):
        """Formal partial derivative in variable j."""
        terms = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            e2 = list(e)
            e2[j] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), 0) + c * e[j]
        return FpMultiPoly(self.p, self.nvars, terms)

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

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, c in terms.items():
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

    @classmethod
    def from_linear(cls, coeffs, const=0):
        nvars = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            exp = [0] * nvars
            exp[j] = 1
            terms[tuple(exp)] = Fraction(c)
        terms[(0,) * nvars] = Fraction(const)
        return cls(nvars, terms)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ArityMismatch("mixed arity")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return RatMultiPoly(self.nvars, terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) - c
        return RatMultiPoly(self.nvars, terms)

    def __neg__(self):
        return RatMultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return RatMultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return RatMultiPoly(self.nvars, terms)

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

    def substitute(self, images):
        if len(images) != self.nvars:
            raise ArityMismatch("substitution arity mismatch")
        nvars = images[0].nvars
        out = RatMultiPoly.zero(nvars)
        pow_cache = {}
        for e, c in self.terms.items():
            term = RatMultiPoly.constant(nvars, c)
            for j, k in enumerate(e):
                if k == 0:
                    continue
                key = (j, k)
                if key not in pow_cache:
                    acc = images[j]
                    for _ in range(k - 1):
                        acc = acc * images[j]
                    pow_cache[key] = acc
                term = term * pow_cache[key]
            out = out + term
        return out

    def shift(self, h):
        """f(n + h) for an integer (or rational) shift h."""
        if len(h) != self.nvars:
            raise ArityMismatch("shift arity mismatch")
        return self.substitute(
            [
                RatMultiPoly.variable(self.nvars, j)
                + RatMultiPoly.constant(self.nvars, h[j])
                for j in range(self.nvars)
            ]
        )

    def delta(self, h):
        """Difference operator f(. + h) - f(.)."""
        return self.shift(h) - self

    def partial(self, j):
        terms = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            e2 = list(e)
            e2[j] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), Fraction(0)) + c * e[j]
        return RatMultiPoly(self.nvars, terms)

    def fiber_map(self, base, p):
        """The polynomial m |-> f(base + p*m) in fresh variables m."""
        if len(base) != self.nvars:
            raise ArityMismatch("base arity mismatch")
        images = [
            RatMultiPoly.variable(self.nvars, j).scale(p)
            + RatMultiPoly.constant(self.nvars, base[j])
            for j in range(self.nvars)
        ]
        return self.substitute(images)

    def two_variable_period_poly(self, p):
        """(n, m) |-> f(n + p*m) - f(n) on 2*nvars variables."""
        d = self.nvars
        images = []
        for j in range(d):
            exp_n = [0] * (2 * d)
            exp_n[j] = 1
            exp_m = [0] * (2 * d)
            exp_m[d + j] = 1
            images.append(
                RatMultiPoly(2 * d, {tuple(exp_n): Fraction(1), tuple(exp_m): Fraction(p)})
            )
        shifted = self.substitute(images)
        widened = self.substitute(
            [RatMultiPoly.variable(2 * d, j) for j in range(d)]
        )
        return shifted - widened

    def binomial_coeffs(self):
        """Coefficients in the basis C(n, i) = prod_j C(n_j, i_j).

        f(n) = sum_i c_i C(n, i) exactly; the inverse of from_binomial.
        """
        coords = {e: Fraction(c) for e, c in self.terms.items()}
        for j in range(self.nvars):
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
                    nxt[key] = nxt.get(key, Fraction(0)) + c * s * _factorial(t)
            coords = {e: c for e, c in nxt.items() if c != 0}
        return coords

    @classmethod
    def from_binomial(cls, nvars, coeffs):
        """Build the polynomial sum_i coeffs[i] * C(n, i)."""
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
                        nxt[key] = nxt.get(key, Fraction(0)) + v * Fraction(s, _factorial(k))
                expansion = nxt
            for e, v in expansion.items():
                terms[e] = terms.get(e, Fraction(0)) + v
        return cls(nvars, terms)

    def is_integer_valued(self):
        return all(c.denominator == 1 for c in self.binomial_coeffs().values())

    def is_integer_coefficient(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def takes_z_over_p_values(self, p):
        """True iff f(Z^d) is contained in Z/p (i.e. p*f is integer valued)."""
        return self.scale(p).is_integer_valued()

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
            c = t["coeff"]
            frac = Fraction(c) if isinstance(c, str) else Fraction(c)
            terms[exp] = terms.get(exp, Fraction(0)) + frac
        return cls(obj["nvars"], terms)

    def __str__(self):
        return json.dumps(self.to_json())


class TauIota:
    """Convention pair: tau embeds F_p in {0..p-1}, iota reduces mod p.

    iota extends to rationals x/y with p not dividing y.
    """

    def __init__(self, p: int):
        self.field = PrimeField(p)
        self.p = p

    def tau(self, a):
        if isinstance(a, (tuple, list)):
            return tuple(x % self.p for x in a)
        return a % self.p

    def iota(self, x):
        if isinstance(x, (tuple, list)):
            return tuple(self.iota(v) for v in x)
        frac = Fraction(x)
        if frac.denominator % self.p == 0:
            raise ValueRangeError("denominator divisible by p under iota")
        return frac.numerator * self.field.inv(frac.denominator % self.p) % self.p


# -- the tau/iota correspondence on polynomials --------------------------------


def induce(f: RatMultiPoly, p: int) -> FpMultiPoly:
    """The F_p polynomial iota(p * f(tau(n))) induced by a Z/p valued f.

    Computed symbolically: p*f must have integer binomial coefficients
    (this is exactly the Z/p-valuedness check), which are then reduced mod p
    and re-expanded in the monomial basis over F_p.
    """
    if f.degree() >= p:
        raise ValueRangeError("induce requires deg(f) < p")
    pf = f.scale(p)
    coords = pf.binomial_coeffs()
    if any(c.denominator != 1 for c in coords.values()):
        raise ValueRangeError("polynomial does not take values in Z/p")
    field = PrimeField(p)
    terms = {}
    for idx, c in coords.items():
        cmod = int(c) % p
        if cmod == 0:
            continue
        # expand C(n, idx) over F_p (all idx_j < p so factorials are units)
        expansion = {tuple(idx): cmod}
        for j in range(f.nvars):
            nxt = {}
            for e, v in expansion.items():
                k = e[j]
                inv_fact = field.inv(_factorial(k) % p) if k else 1
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


def is_partially_p_periodic_on(f: RatMultiPoly, omega, p: int) -> bool:
    """Partial p-periodicity on omega, a set of base points in [p]^d.

    For every n0 in omega, the fiber polynomial m -> f(n0 + p m) must have
    all nonconstant binomial coefficients in Z; equivalently
    f(n + p m) - f(n) is an integer on the coset n0 + p Z^d.
    """
    if f.degree() >= p:
        raise ValueRangeError("requires deg(f) < p")
    return partial_periodicity_witness(f, omega, p) is None


def partial_periodicity_witness(f: RatMultiPoly, omega, p: int):
    """First (n0, index) violating partial p-periodicity, or None."""
    return _first_noninteger_fiber(f, sorted(omega), p, skip_constant=True)


# -- fiber tables through Newton differences on the simplex grid ---------------


def _binom_basis_indices(nvars, max_degree):
    """Exponent tuples of total degree <= max_degree, sorted: the simplex
    grid that indexes binomial-basis coordinates up to that degree."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    if max_degree < 0:
        return []
    rec([], max_degree)
    out.sort()
    return out


@lru_cache(maxsize=None)
def _newton_plan(nvars, deg):
    """(target, source) positions on _binom_basis_indices(nvars, deg), one
    pair per axis j and difference order k: targets have g_j >= k and each
    source is its target moved one step down along axis j."""
    grid = _binom_basis_indices(nvars, deg)
    pos = {g: t for t, g in enumerate(grid)}
    plan = []
    for j in range(nvars):
        for k in range(1, deg + 1):
            tgt = [t for t, g in enumerate(grid) if g[j] >= k]
            src = [pos[grid[t][:j] + (grid[t][j] - 1,) + grid[t][j + 1 :]] for t in tgt]
            plan.append((np.array(tgt, dtype=np.intp), np.array(src, dtype=np.intp)))
    return tuple(plan)


def _newton_differences(values, nvars, deg):
    """Binomial-basis coordinates from values on the simplex grid, in place.

    values[r, t] = h_r(grid[t]) for polynomials h_r of degree <= deg, where
    grid = _binom_basis_indices(nvars, deg); afterwards values[r, t] is the
    coefficient of C(n, grid[t]) in h_r, that is Delta^grid[t] h_r(0)
    (Newton's forward-difference formula).  Each plan step is one forward
    difference along one axis, applied to all points with g_j >= k at
    once; after deg steps on axis j a point holds Delta_j^{g_j} of the
    previous axis' values at g_j = 0.  Exact on object arrays of integers
    or Fractions, and on int64 arrays while 2^deg max|values| < 2^63.
    """
    for tgt, src in _newton_plan(nvars, deg):
        values[:, tgt] -= values[:, src]
    return values


def _fiber_coefficient_table(f: RatMultiPoly, base_points, p):
    """Binomial-basis coefficients of every fiber map m -> f(n0 + p m).

    The denominators of f are cleared by den = lcm of its coefficient
    denominators; the integer polynomial den * f is evaluated at n0 + p g
    for every base point n0 and every g on the grid
    _binom_basis_indices(nvars, deg f), and Newton differences turn each
    row of values into coordinates.  Returns (grid, numerators, den): the
    coefficient of C(m, grid[t]) in the fiber at base_points[b] is
    numerators[b, t] / den, so it is an integer exactly when den divides
    numerators[b, t].  The table is int64 when a bound on every value,
    power and difference shows it exact, else Python integers.
    """
    d = f.nvars
    deg = max(f.degree(), 0)
    grid = _binom_basis_indices(d, deg)
    den = f.denominator_lcm()
    base = np.asarray(base_points, dtype=np.int64).reshape(-1, d)
    pts = base[:, None, :] + p * np.array(grid, dtype=np.int64)[None, :, :]
    cleared = {e: int(c * den) for e, c in f.terms.items()}
    # |den f| at these points is at most the bound, each power column too
    # (coordinates taken >= 1), and a difference of order |g| at most 2^|g|
    # times it
    xmax = [int(np.abs(pts[:, :, j]).max(initial=1)) for j in range(d)]
    bound = sum(abs(c) * prod(map(pow, xmax, e)) for e, c in cleared.items())
    dtype = np.int64 if max(bound << deg, den) < 2**63 else object
    powers = []
    for j in range(d):
        col = pts[:, :, j].astype(dtype)
        pw = [1, col]
        for _ in range(f.max_var_power(j) - 1):
            pw.append(pw[-1] * col)
        powers.append(pw)
    vals = np.zeros(pts.shape[:2], dtype=dtype)
    for e, term in cleared.items():
        for j, k in enumerate(e):
            if k:
                term = term * powers[j][k]
        vals += term
    return grid, _newton_differences(vals, d, deg), den


def _first_noninteger_fiber(f, base_points, p, skip_constant=False):
    """(n0, index) of the first non-integral fiber binomial coefficient,
    scanning base points in the given order and indices in grid order."""
    if f.is_zero() or len(base_points) == 0:
        return None
    grid, numerators, den = _fiber_coefficient_table(f, base_points, p)
    bad = numerators % den != 0
    if skip_constant:
        bad[:, 0] = False  # grid[0] is the zero index
    hits = np.argwhere(bad)
    if len(hits) == 0:
        return None
    b, t = hits[0]
    return tuple(base_points[b]), grid[t]
