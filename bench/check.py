"""Independent checks for benchmark verdicts.

Nothing here calls into spherefp: points are enumerated, forms and
polynomials are evaluated, and polynomial identities are decided with this
module's own code, so a verdict is never checked by the code that made it.

Identities are decided by evaluation on a simplex grid: a polynomial of
total degree <= D in d variables that vanishes on {m : m_j >= 0, |m| <= D}
is zero (its binomial-basis coefficients are differences of those values).
The same holds over F_p when D < p, because the factorials involved are
then units.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np


def all_points(p, d):
    """All of [p]^d as a (p^d, d) int64 array in lexicographic order."""
    grid = np.indices((p,) * d, dtype=np.int64)
    return grid.reshape(d, -1).T.copy()


def simplex_grid(d, deg):
    """The integer points m >= 0 with |m| <= deg, as tuples."""
    return [m for m in itertools.product(range(deg + 1), repeat=d) if sum(m) <= deg]


def form_values(A, u, v, p, pts):
    """(nA).n + u.n + v mod p at every row of pts."""
    a = np.asarray(A, dtype=np.int64)
    quad = ((pts @ a) % p * pts).sum(axis=1)
    return (quad + pts @ np.asarray(u, dtype=np.int64) + v) % p


def sphere_zeros(A, u, v, p, d):
    """V(M) inside [p]^d for M(n) = (nA).n + u.n + v over F_p."""
    pts = all_points(p, d)
    return pts[form_values(A, u, v, p, pts) == 0]


def fp_values(terms, p, pts):
    """A sparse F_p polynomial {exponent: coeff} at every row of pts."""
    out = np.zeros(len(pts), dtype=np.int64)
    for e, c in terms.items():
        val = np.full(len(pts), c % p, dtype=np.int64)
        for j, k in enumerate(e):
            for _ in range(k):
                val = val * pts[:, j] % p
        out = (out + val) % p
    return out


def fp_value(terms, p, pt):
    total = 0
    for e, c in terms.items():
        val = c
        for x, k in zip(pt, e):
            val = val * pow(x, k, p) % p
        total += val
    return total % p


def rat_value(terms, pt):
    """A sparse rational polynomial {exponent: Fraction} at an integer point."""
    total = Fraction(0)
    for e, c in terms.items():
        val = c
        for x, k in zip(pt, e):
            if k:
                val *= x**k
        total += val
    return total


def degree(terms):
    return max((sum(e) for e in terms), default=-1)


def rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def is_integer_valued(terms, nvars):
    """Whether a rational polynomial maps Z^nvars into Z."""
    return all(
        rat_value(terms, m).denominator == 1 for m in simplex_grid(nvars, max(degree(terms), 0))
    )


def has_integer_coefficients(terms):
    return all(Fraction(c).denominator == 1 for c in terms.values())


def rat_identity(nvars, deg, lhs, rhs):
    """Whether lhs(m) == rhs(m) on the simplex grid of degree deg, for
    callables lhs and rhs returning Fractions; an identity when both sides
    have total degree <= deg."""
    return all(lhs(m) == rhs(m) for m in simplex_grid(nvars, max(deg, 0)))


def fiber_coefficient(terms, n0, p, idx):
    """Binomial coefficient at idx of m -> f(n0 + p m), by finite differences."""
    total = Fraction(0)
    for j in itertools.product(*(range(i + 1) for i in idx)):
        weight = 1
        for a, b in zip(j, idx):
            weight *= comb(b, a)
        sign = -1 if (sum(idx) - sum(j)) % 2 else 1
        total += sign * weight * rat_value(terms, [x + p * y for x, y in zip(n0, j)])
    return total


def binom_values_mod_p(idx_list, coeffs, p, pts):
    """sum_k coeffs[k] * C(n, idx_k) mod p at every row of pts (idx_kj < p)."""
    out = np.zeros(len(pts), dtype=np.int64)
    for idx, c in zip(idx_list, coeffs):
        val = np.full(len(pts), c % p, dtype=np.int64)
        for j, k in enumerate(idx):
            col = np.array([comb(int(x), k) % p for x in range(p)], dtype=np.int64)
            val = val * col[pts[:, j]] % p
        out = (out + val) % p
    return out
