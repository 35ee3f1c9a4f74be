"""Long division by quadratic forms and the solvable polynomial equations
on quadrics: Nullstellensatz certificates, the containment dichotomy,
anti-derivatives, intrinsic-polynomial decompositions, the Gowers-cube
equation, and the Z/p lifts of all of these.

Every solver returns objects that re-verify by symbolic substitution with
zero tolerance; witness searches scan lexicographically and stop at the
first violation, so outcomes are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul

import numpy as np

from ._zlinalg import int_solve, rat_solve
from .counting import BudgetExceeded, DEFAULT_BUDGET, all_points, enumerate_zeros
from .ffcore import FpMatrix, PrimeField, rref
from .fpoly import (
    FpMultiPoly,
    RatMultiPoly,
    _binom_basis_indices,
    _fiber_coefficient_table,  # re-exported: bench/tracing.py wraps it by this name
    _first_noninteger_fiber,
    _newton_differences,
    induce,
    p_expand,
    regular_lift,
)
from .quadform import QuadForm, TheoremViolation, qf_rank


class PivotZero(ValueError):
    pass


class ZeroMatrix(ValueError):
    pass


class HypothesisFailed(Exception):
    def __init__(self, witness, message="hypothesis failed"):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


class NoSolution(Exception):
    pass


class WitnessFound(Exception):
    def __init__(self, witness):
        super().__init__(f"witness {witness}")
        self.witness = witness


class NotSphereIntegral(ValueError):
    def __init__(self, witness):
        super().__init__(f"not integer valued on the quadric: {witness}")
        self.witness = witness


class NotPartiallyPeriodic(ValueError):
    def __init__(self, witness):
        super().__init__(f"not partially p-periodic on the quadric: {witness}")
        self.witness = witness


def matrix_inverse(B: FpMatrix) -> FpMatrix:
    field = B.field
    n = B.nrows
    aug = FpMatrix(
        field, [B.rows[i] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    )
    red, rk, _ = rref(aug)
    if rk < n:
        raise ValueError("matrix is singular")
    return FpMatrix(field, [red.rows[i][n:] for i in range(n)])


# -- pivot change and long division --------------------------------------------


def pivot_change(A: FpMatrix):
    """(i, j) and an invertible B with (B A B^T)_{11} nonzero.

    Diagonal pivots are moved to the front by a permutation; a purely
    off-diagonal pivot a_ij is exposed through the substitution with first
    rows e_i + e_j/2 and e_i - e_j/2, which makes the upper-left entry
    exactly a_ij.
    """
    field = A.field
    p = field.p
    d = A.nrows
    if not A.is_symmetric():
        raise ValueError("pivot_change needs a symmetric matrix")
    for i in range(d):
        if A.rows[i][i] != 0:
            rows = [[0] * d for _ in range(d)]
            rows[0][i] = 1
            rest = [k for k in range(d) if k != i]
            for r, k in enumerate(rest, start=1):
                rows[r][k] = 1
            return (i + 1, i + 1), FpMatrix(field, rows)
    for i in range(d):
        for j in range(i + 1, d):
            if A.rows[i][j] != 0:
                half = field.inv(2)
                rows = [[0] * d for _ in range(d)]
                rows[0][i] = 1
                rows[0][j] = half
                rows[1][i] = 1
                rows[1][j] = field.neg(half)
                rest = [k for k in range(d) if k not in (i, j)]
                for r, k in enumerate(rest, start=2):
                    rows[r][k] = 1
                return (i + 1, j + 1), FpMatrix(field, rows)
    raise ZeroMatrix("pivot_change needs a nonzero matrix")


class DivisionCert:
    """P(nB) = M(nB) Q(n) + n_1 R_1(n') + R_0(n') with degree bounds
    deg Q <=
    deg P - 2, deg R_1 <= deg P - 1, deg R_0 <= deg P; equivalently, after
    the inverse change of variables, the same identity on P itself.
    """

    def __init__(self, P, M, pivot, B, quotient, r1, r0):
        self.P = P
        self.M = M
        self.pivot = pivot
        self.B = B
        self.quotient = quotient
        self.r1 = r1
        self.r0 = r0

    def remainder_is_zero(self):
        return self.r1.is_zero() and self.r0.is_zero()

    def verify(self) -> bool:
        pb = self.P.compose_linear(self.B.rows)
        mb = self.M.as_poly().compose_linear(self.B.rows)
        n1 = FpMultiPoly.variable(self.P.p, self.P.nvars, 0)
        rhs = mb * self.quotient + n1 * self.r1 + self.r0
        s = self.P.degree()
        if pb != rhs:
            return False
        if self.quotient.degree() > max(s - 2, -1):
            return False
        if self.r1.degree() > max(s - 1, -1) or self.r0.degree() > s:
            return False
        return True

    def divisor_multiple(self):
        """The polynomial R with P = M R when the remainders vanish."""
        if not self.remainder_is_zero():
            raise NoSolution("nonzero remainder")
        binv = matrix_inverse(self.B)
        return self.quotient.compose_linear(binv.rows)

    def to_json(self):
        return {
            "pivot": list(self.pivot),
            "B": self.B.to_lists(),
            "quotient": self.quotient.to_json(),
            "r1": self.r1.to_json(),
            "r0": self.r0.to_json(),
            "remainder_zero": self.remainder_is_zero(),
        }


def _euclidean_divide(P: FpMultiPoly, Mpoly: FpMultiPoly, field: PrimeField):
    """Divide by a quadratic with unit n_1^2 coefficient, Euclidean in n_1."""
    d = P.nvars
    lead_exp = tuple([2] + [0] * (d - 1))
    a = Mpoly.terms.get(lead_exp, 0)
    if a == 0:
        raise PivotZero("n_1^2 coefficient of the divisor vanishes")
    ainv = field.inv(a)
    quotient = FpMultiPoly.zero(P.p, d)
    rem = P
    while True:
        e = rem.max_var_power(0)
        if e < 2:
            break
        coef = rem.coefficient_of_var_power(0, e)  # independent of n_1
        shift_exp = [0] * d
        shift_exp[0] = e - 2
        qterm = FpMultiPoly(P.p, d, {tuple(shift_exp): ainv}) * coef
        quotient = quotient + qterm
        rem = rem - qterm * Mpoly
    r1 = rem.coefficient_of_var_power(0, 1)
    r0 = rem.coefficient_of_var_power(0, 0)
    return quotient, r1, r0


def standard_division(P: FpMultiPoly, M: QuadForm) -> DivisionCert:
    """The standard long division P = M Q + n_1 R_1(n') + R_0(n');
    requires the upper-left entry of A to be nonzero and deg(P) < p."""
    if P.degree() >= M.p:
        raise ValueError("standard division requires deg(P) < p")
    if M.A.rows[0][0] == 0:
        raise PivotZero("upper-left entry of A is zero")
    ident = FpMatrix.identity(M.field, M.d)
    q, r1, r0 = _euclidean_divide(P, M.as_poly(), M.field)
    cert = DivisionCert(P, M, (1, 1), ident, q, r1, r0)
    if not cert.verify():
        raise TheoremViolation("division certificate failed to verify")
    return cert


def bij_division(P: FpMultiPoly, M: QuadForm) -> DivisionCert:
    """B_{i,j}-standard long division: pivot first, then divide."""
    if P.degree() >= M.p:
        raise ValueError("division requires deg(P) < p")
    pivot, B = pivot_change(M.A)
    pb = P.compose_linear(B.rows)
    mb = M.composed(B)
    q, r1, r0 = _euclidean_divide(pb, mb.as_poly(), M.field)
    cert = DivisionCert(P, M, pivot, B, q, r1, r0)
    if not cert.verify():
        raise TheoremViolation("division certificate failed to verify")
    return cert


# -- Nullstellensatz and the dichotomy ------------------------------------------


def nullstellensatz(P: FpMultiPoly, M: QuadForm, budget=DEFAULT_BUDGET):
    """Either ('certificate', R) with P = M R and deg R <= deg P - 2, or
    ('witness', n) with n in V(M), P(n) != 0.  Total by the dichotomy."""
    s = P.degree()
    if not (M.p >= 5 and M.p > 2 * s):
        raise ValueError("needs p >= 5 and p > 2 deg(P)")
    return _nullstellensatz_core(P, M, budget)


def _nullstellensatz_core(P: FpMultiPoly, M: QuadForm, budget=DEFAULT_BUDGET):
    if qf_rank(M) < 3:
        raise ValueError("nullstellensatz needs rank(M) >= 3")
    cert = bij_division(P, M)
    if cert.remainder_is_zero():
        R = cert.divisor_multiple()
        if M.as_poly() * R != P:
            raise TheoremViolation("quotient re-multiplication failed")
        return "certificate", R
    zeros = enumerate_zeros(M, None, budget)
    vals = P.eval_array(zeros)
    bad = np.flatnonzero(vals != 0)
    if len(bad) == 0:
        raise TheoremViolation(
            "V(M) contained in V(P) but the division has a remainder"
        )
    witness = tuple(int(x) for x in zeros[bad[0]])
    return "witness", witness


class DichotomyVerdict:
    def __init__(self, kind, count, total, certificate=None, witness=None):
        self.kind = kind  # 'contained' | 'small'
        self.count = count
        self.total = total
        self.certificate = certificate
        self.witness = witness

    def to_json(self):
        out = {"kind": self.kind, "count": self.count, "total": self.total}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def dichotomy(P: FpMultiPoly, M: QuadForm, delta: float, budget=DEFAULT_BUDGET):
    """|V(P) n V(M)| <= delta |V(M)| with the exact count, or containment
    with a division certificate.  A middle-ground outcome contradicts the
    theorem and raises."""
    if qf_rank(M) < 3:
        raise ValueError("dichotomy needs rank(M) >= 3")
    zeros = enumerate_zeros(M, None, budget)
    vals = P.eval_array(zeros)
    count = int((vals == 0).sum())
    total = len(zeros)
    if count == total:
        kind, cert = nullstellensatz(P, M, budget)
        if kind != "certificate":
            raise TheoremViolation("containment without certificate")
        return DichotomyVerdict("contained", count, total, certificate=cert)
    if count <= delta * total:
        bad = np.flatnonzero(vals != 0)
        witness = tuple(int(x) for x in zeros[bad[0]])
        return DichotomyVerdict("small", count, total, witness=witness)
    raise TheoremViolation(
        f"middle ground: {count} of {total} zeros at delta={delta}"
    )


# -- anti-derivative -------------------------------------------------------------


def antiderivative(Q: FpMultiPoly, M: QuadForm, budget=DEFAULT_BUDGET):
    """Given d1M diQ = diM d1Q on V(M) for all i and Q(0) = 0, produce Q'
    with Q = M Q'.  Hypothesis failures carry (i, witness point)."""
    if Q.constant_term() != 0:
        raise ValueError("antiderivative requires Q(0) = 0")
    if qf_rank(M) < 3:
        raise ValueError("antiderivative needs rank(M) >= 3")
    mp = M.as_poly()
    zeros = enumerate_zeros(M, None, budget)
    d1m = mp.partial(0)
    d1q = Q.partial(0)
    for i in range(1, M.d):
        diff = d1m * Q.partial(i) - mp.partial(i) * d1q
        vals = diff.eval_array(zeros)
        bad = np.flatnonzero(vals != 0)
        if len(bad):
            raise HypothesisFailed(
                (i + 1, tuple(int(x) for x in zeros[bad[0]])),
                "derivative proportionality fails on V(M)",
            )
    cert = bij_division(Q, M)
    if not cert.remainder_is_zero():
        if cert.r1.is_zero() and cert.r0.degree() <= 0:
            # The proof machinery yields Q = M W + a; when M(0) != 0 the
            # normalization Q(0) = 0 does not force a = 0, so the stated
            # conclusion can fail by a constant (e.g. Q = n.n, M = n.n - r).
            raise TheoremViolation(
                "anti-derivative differs from a multiple of M by the nonzero "
                f"constant {cert.r0.constant_term()}"
            )
        raise TheoremViolation("anti-derivative hypothesis holds but M does not divide Q")
    return cert.divisor_multiple()


# -- intrinsic decomposition and the Gowers equation ----------------------------


def reduce_mod_form(g: FpMultiPoly, M: QuadForm, low_degree: int):
    """(g1, g2) with g = M g1 + g2, deg g2 <= low_degree, or None.

    Peels homogeneous top parts: each layer must be divisible by the
    quadratic part of M, which is decided exactly by Euclidean division,
    so failure at any layer certifies that no such decomposition exists.
    """
    if g.degree() <= low_degree:
        return FpMultiPoly.zero(g.p, g.nvars), g
    pivot, B = pivot_change(M.A)
    binv = matrix_inverse(B)
    gb = g.compose_linear(B.rows)
    mb = M.composed(B)
    mb_poly = mb.as_poly()
    m2 = mb_poly.homogeneous_part(2)
    quo = FpMultiPoly.zero(g.p, g.nvars)
    rem = gb
    field = M.field
    while rem.degree() > low_degree:
        top = rem.homogeneous_part(rem.degree())
        q, r1, r0 = _euclidean_divide(top, m2, field)
        if not (r1.is_zero() and r0.is_zero()):
            return None
        quo = quo + q
        rem = rem - mb_poly * q
    g1 = quo.compose_linear(binv.rows)
    g2 = rem.compose_linear(binv.rows)
    if M.as_poly() * g1 + g2 != g:
        raise TheoremViolation("mod-form reduction failed to re-verify")
    return g1, g2


def _cube_difference(g: FpMultiPoly, n, hs):
    """Delta_{h_s} ... Delta_{h_1} g(n) by inclusion-exclusion."""
    p = g.p
    s = len(hs)
    total = 0
    for mask in range(1 << s):
        pt = list(n)
        bits = 0
        for t in range(s):
            if mask >> t & 1:
                bits += 1
                for j in range(len(pt)):
                    pt[j] = (pt[j] + hs[t][j]) % p
        val = g.evaluate(pt)
        total += val if (s - bits) % 2 == 0 else -val
    return total % p


def first_gowers_witness(g: FpMultiPoly, M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    """First (n, h_1..h_s) in Box_s(V(M)), lexicographic, with a nonzero
    s-fold difference of g; None if the scan completes without one."""
    p = M.p
    zeros = enumerate_zeros(M, None, budget)
    space = all_points(p, M.d)
    counter = [0]

    def extend(n, hs):
        keep = M.shifted(list(n)).eval_array(space) == 0
        for h_prev in hs:
            ha = np.array(M.A.vecmat(list(h_prev)), dtype=np.int64)
            keep &= (space @ ha) % p == 0
        return space[keep]

    def recurse(n, hs):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded("witness scan budget exhausted")
        if len(hs) == s:
            if _cube_difference(g, n, hs) != 0:
                return (tuple(int(x) for x in n),) + tuple(
                    tuple(int(x) for x in h) for h in hs
                )
            return None
        for h in extend(n, hs):
            found = recurse(n, hs + [tuple(int(x) for x in h)])
            if found:
                return found
        return None

    for n in zeros:
        found = recurse(tuple(int(x) for x in n), [])
        if found:
            return found
    return None


def intrinsic_decompose(g: FpMultiPoly, M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    """Either ('decomposition', g1, g2) with g = M g1 + g2 and
    deg g1 <= s - 2, deg g2 <= s - 1, or ('witness', cube) with a Gowers
    cube on which the s-fold difference of g does not vanish."""
    if g.degree() > s:
        raise ValueError("deg(g) must be at most s")
    res = reduce_mod_form(g, M, s - 1)
    if res is not None:
        g1, g2 = res
        return "decomposition", g1, g2
    witness = first_gowers_witness(g, M, s, budget)
    if witness is None:
        raise TheoremViolation(
            "no decomposition and no Gowers witness; outside the theorem regime"
        )
    return "witness", witness


def _box_tuples(M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    from .counting import gowers_set

    return gowers_set(M, s, None, budget, count_only=False)


def gowers_equation_solve(P: FpMultiPoly, Q: FpMultiPoly, M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    """Solve the cube equation on all of Box_s(V(M)):

        Delta_{h_{s-1}}..Delta_{h_1} P(n) + Delta_{h_s}..Delta_{h_1} Q(n) = 0

    (the P-block is P(n) itself when s = 1).  On success returns
    ('factorization', P1, P2, Q1, Q2) with P = M P1 + P2, Q = M Q1 + Q2 and
    the degree bounds deg P2 <= s - 2, deg Q2 <= s - 1; a violated
    hypothesis returns ('witness', cube)."""
    if qf_rank(M) < s + 3:
        raise ValueError("needs rank(M) >= s + 3")
    if s == 1:
        # P(n) + Q(n+h) - Q(n) = 0 on Box_1 = {(n, m - n) : n, m in V(M)}
        zeros = enumerate_zeros(M, None, budget)
        if len(zeros) ** 2 > budget:
            raise BudgetExceeded("Box_1 hypothesis scan exceeds budget")
        pv = P.eval_array(zeros)
        qv = Q.eval_array(zeros)
        diff = (pv[:, None] - qv[:, None] + qv[None, :]) % M.p
        bad = np.argwhere(diff != 0)
        if len(bad):
            i, j = bad[0]
            n = tuple(int(x) for x in zeros[i])
            m = zeros[j]
            h = tuple(int((m[t] - n[t]) % M.p) for t in range(M.d))
            return "witness", (n, h)
    else:
        for tup in _box_tuples(M, s, budget):
            n, hs = tup[0], list(tup[1:])
            left = _cube_difference(P, n, hs[: s - 1])
            right = _cube_difference(Q, n, hs)
            if (left + right) % M.p != 0:
                return "witness", tup
    rp = reduce_mod_form(P, M, s - 2)
    rq = reduce_mod_form(Q, M, s - 1)
    if rp is None or rq is None:
        raise NoSolution(
            "cube equation holds on Box_s but a factorization does not exist"
        )
    p1, p2 = rp
    q1, q2 = rq
    return "factorization", p1, p2, q1, q2


# -- Z/p quadratic forms and the lifting trick ----------------------------------


class ZpQuadForm:
    """M(n) = ((nA)n + u.n + v)/p with integer data; the Z/p-valued lift."""

    def __init__(self, p: int, A, u=None, v=0):
        self.p = p
        self.A = [[int(x) for x in row] for row in A]
        self.d = len(self.A)
        for i in range(self.d):
            for j in range(self.d):
                if self.A[i][j] != self.A[j][i]:
                    raise ValueError("A must be symmetric")
        self.u = [int(x) for x in (u or [0] * self.d)]
        self.v = int(v)

    @classmethod
    def from_fp(cls, M: QuadForm):
        """The regular lift: integer entries tau(A), tau(u), tau(v)."""
        return cls(M.p, M.A.to_lists(), M.u[:], M.v)

    @classmethod
    def sphere(cls, p, d, radius):
        a = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        return cls(p, a, None, -(radius % p))

    def induced(self) -> QuadForm:
        field = PrimeField(self.p)
        return QuadForm(
            field,
            [[x % self.p for x in row] for row in self.A],
            [x % self.p for x in self.u],
            self.v % self.p,
        )

    def p_rank(self):
        return qf_rank(self.induced())

    def integer_poly(self) -> RatMultiPoly:
        """(nA)n + u.n + v as an integer-coefficient polynomial (= p M)."""
        d = self.d
        terms = {}
        for i in range(d):
            for j in range(d):
                e = [0] * d
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + self.A[i][j]
        for i in range(d):
            e = [0] * d
            e[i] = 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + self.u[i]
        terms[(0,) * d] = self.v
        return RatMultiPoly(d, {e: Fraction(c) for e, c in terms.items() if c})

    def as_ratpoly(self) -> RatMultiPoly:
        return self.integer_poly().scale(Fraction(1, self.p))

    def sphere_points(self, budget=DEFAULT_BUDGET):
        """tau(V(M-bar)): the base integer points of V_p(M) inside [p]^d."""
        return [tuple(int(x) for x in z) for z in enumerate_zeros(self.induced(), None, budget)]

    def to_json(self):
        return {"p": self.p, "A": self.A, "u": self.u, "v": self.v}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["p"], obj["A"], obj.get("u"), obj.get("v", 0))


def lift_nullstellensatz(P: RatMultiPoly, M: ZpQuadForm, budget=DEFAULT_BUDGET):
    """Lifted Nullstellensatz: for Z/p-valued P vanishing into Z on V_p(M),
    produce (P1 integer coefficients, P0 integer valued) with P = M P1 + P0;
    otherwise raise WitnessFound(n) with M(n) in Z, P(n) not in Z."""
    p = M.p
    s = P.degree()
    if s >= p:
        raise ValueError("needs deg(P) < p")
    if not P.takes_z_over_p_values(p):
        raise ValueError("P must take values in Z/p")
    if M.p_rank() < 3:
        raise ValueError("needs p-rank >= 3")
    Mbar = M.induced()
    Pbar = induce(P, p)
    kind, payload = _nullstellensatz_core(Pbar, Mbar, budget)
    if kind == "witness":
        n = payload
        raise WitnessFound(n)
    Qbar = payload  # Pbar = Mbar * Qbar
    Q = regular_lift(Qbar)
    m_rat = M.as_ratpoly()
    i0 = P - m_rat.scale(p) * Q
    if not i0.is_integer_valued():
        raise TheoremViolation("lift residual is not integer valued")
    f = Q.scale(p)  # integer coefficients
    f1, f2 = p_expand(f, p)  # Q = f1 + f2/p
    P1 = f2
    P0 = M.integer_poly() * f1 + i0
    if not (P1.is_integer_coefficient() and P0.is_integer_valued()):
        raise TheoremViolation("lifted certificate has the wrong value classes")
    if m_rat * P1 + P0 != P:
        raise TheoremViolation("lifted certificate failed to re-verify")
    return P1, P0


# -- p-expansion solvers (solution shapes as exact integer linear systems) ------


def _system_matrix(M: ZpQuadForm, df, blocks):
    """The columns p^k N^i C(n, idx) with N = p M, for each block
    (i, k, indices) and idx in indices, in binomial coordinates up to degree
    df, as grid rows x columns: their integer values on the grid go through
    Newton differences."""
    grid = _binom_basis_indices(M.d, df)
    nvals = [
        sum(x * sum(map(mul, row, g)) for x, row in zip(g, M.A)) + sum(map(mul, M.u, g)) + M.v
        for g in grid
    ]
    g_arr = np.array(grid, dtype=np.int64).reshape(len(grid), M.d)
    span = range(max(df, 0) + 1)
    comb_table = np.array([[comb(a, b) for b in span] for a in span], dtype=object)
    parts = []
    for i, k, indices in blocks:
        idx = np.array(indices, dtype=np.int64).reshape(len(indices), M.d)
        binoms = comb_table[g_arr[None, :, :], idx[:, None, :]].prod(axis=2)
        parts.append(binoms * np.array([M.p**k * nv**i for nv in nvals], dtype=object))
    return _newton_differences(np.concatenate(parts), M.d, df).T.tolist()


def _p_free_denominator(coords, p):
    """lcm of the denominators of coords, with every factor p removed."""
    q = lcm(*(c.denominator for c in coords))
    while q % p == 0:
        q //= p
    return q


def sphere_vanishing_decompose(f: RatMultiPoly, M: ZpQuadForm, budget=DEFAULT_BUDGET):
    """Solve Q0 f = sum_i M^i R_i with R_i integer valued of degree
    <= deg(f) - 2i and Q0 coprime to p, for f integer valued on V_p(M).

    The solution shape is found as an exact integer linear system in the
    binomial-basis coordinates of the R_i and certified by substitution.
    """
    p = M.p
    df = f.degree()
    if df >= p:
        raise ValueError("needs deg(f) < p")
    if M.p_rank() < 3:
        raise ValueError("needs p-rank >= 3")
    base_points = M.sphere_points(budget)
    witness = _first_noninteger_fiber(f, base_points, p)
    if witness is not None:
        raise NotSphereIntegral(witness)
    if df < 0:
        return 1, [RatMultiPoly.zero(f.nvars)]
    t = df // 2
    coords = f.binomial_coeffs()
    q0 = _p_free_denominator(coords.values(), p)
    eq_indices = _binom_basis_indices(f.nvars, df)
    rhs_coords = [coords.get(idx, 0) * q0 * p**t for idx in eq_indices]
    if any(c.denominator != 1 for c in rhs_coords):
        raise TheoremViolation(
            "p-adic depth of f exceeds floor(deg f / 2); no decomposition exists"
        )
    blocks = [(i, t - i, _binom_basis_indices(f.nvars, df - 2 * i)) for i in range(t + 1)]
    unknown_slots = [(i, idx) for i, _, indices in blocks for idx in indices]
    amat = _system_matrix(M, df, blocks)
    z = int_solve(amat, [int(c) for c in rhs_coords])
    if z is None:
        xq = rat_solve(
            [[Fraction(v) for v in row] for row in amat],
            [Fraction(int(c)) for c in rhs_coords],
        )
        if xq is None:
            raise TheoremViolation("decomposition system inconsistent over Q")
        scale = _p_free_denominator(xq, p)
        z = int_solve(amat, [int(c) * scale for c in rhs_coords])
        if z is None:
            raise TheoremViolation("no integer decomposition at any p-free scale")
        q0 *= scale
    slots = {}
    for (i, idx), val in zip(unknown_slots, z):
        if val:
            slots.setdefault(i, {})[idx] = val
    rs = [RatMultiPoly.from_binomial(f.nvars, slots.get(i, {})) for i in range(t + 1)]
    m_rat = M.as_ratpoly()
    acc = RatMultiPoly.zero(f.nvars)
    mpow = RatMultiPoly.constant(f.nvars, 1)
    for i in range(t + 1):
        acc = acc + mpow * rs[i]
        mpow = mpow * m_rat
    if acc != f.scale(q0):
        raise TheoremViolation("sphere-vanishing decomposition failed to re-verify")
    if not f.scale(p**t).is_integer_valued():
        raise TheoremViolation("second clause p^{floor(deg/2)} f failed")
    return q0, rs


def sphere_periodic_decompose(f: RatMultiPoly, M: ZpQuadForm, budget=DEFAULT_BUDGET):
    """Solve Q0 f = C + R_0/p + sum_{i>=2} M^i R_i for f partially
    p-periodic on V_p(M); R_i integer valued, C a free rational constant."""
    p = M.p
    df = f.degree()
    if df >= p:
        raise ValueError("needs deg(f) < p")
    if M.p_rank() < 3:
        raise ValueError("needs p-rank >= 3")
    base_points = M.sphere_points(budget)
    witness = _first_noninteger_fiber(f, base_points, p, skip_constant=True)
    if witness is not None:
        raise NotPartiallyPeriodic(witness)
    nvars = f.nvars
    zero_idx = (0,) * nvars
    t = df // 2
    s_star = max(1, t)
    # the constant term of f only moves the zero coordinate, which C absorbs
    coords = f.binomial_coeffs()
    nonconst = [c for idx, c in coords.items() if idx != zero_idx]
    q0 = _p_free_denominator(nonconst, p)
    eq_indices = _binom_basis_indices(nvars, df)[1:]  # all but the zero index
    rhs_coords = [coords.get(idx, 0) * q0 * p**s_star for idx in eq_indices]
    if any(c.denominator != 1 for c in rhs_coords):
        raise TheoremViolation("p-adic depth exceeds the periodic decomposition shape")
    # R_0 without its constant coordinate (redundant with C), then M^i R_i
    blocks = [(0, s_star - 1, eq_indices)] + [
        (i, s_star - i, _binom_basis_indices(nvars, df - 2 * i)) for i in range(2, t + 1)
    ]
    unknown_slots = [(i, idx) for i, _, indices in blocks for idx in indices]
    amat = _system_matrix(M, df, blocks)[1:]
    z = int_solve(amat, [int(c) for c in rhs_coords])
    if z is None:
        xq = rat_solve(
            [[Fraction(v) for v in row] for row in amat],
            [Fraction(int(c)) for c in rhs_coords],
        )
        if xq is None:
            raise TheoremViolation("periodic decomposition inconsistent over Q")
        scale = _p_free_denominator(xq, p)
        z = int_solve(amat, [int(c) * scale for c in rhs_coords])
        if z is None:
            raise TheoremViolation("no integer solution at any p-free scale")
        q0 *= scale
    slots = {}
    for (i, idx), val in zip(unknown_slots, z):
        if val:
            slots.setdefault(i, {})[idx] = val
    r0 = RatMultiPoly.from_binomial(nvars, slots.get(0, {}))
    rs = {
        i: RatMultiPoly.from_binomial(nvars, slots.get(i, {})) for i in range(2, t + 1)
    }
    m_rat = M.as_ratpoly()
    acc = r0.scale(Fraction(1, p))
    mpow = m_rat * m_rat
    for i in range(2, t + 1):
        acc = acc + mpow * rs[i]
        mpow = mpow * m_rat
    cc = f.scale(q0) - acc
    if cc.degree() > 0:
        raise TheoremViolation("periodic decomposition failed to re-verify")
    c_value = cc.constant_term()
    # normalize: integer-over-p and integer parts of the constant belong to
    # the R_0 / p slot, so e.g. f = g/p comes back as (C, R_0) = (0, Q0 g)
    den = c_value.denominator
    if den % p == 0 and (den // p) % p != 0:
        m = den // p
        t = c_value.numerator * pow(m, -1, p) % p
        c_value -= Fraction(t, p)
        r0 = r0 + RatMultiPoly.constant(nvars, t)
    whole = c_value.numerator // c_value.denominator
    if whole:
        c_value -= whole
        r0 = r0 + RatMultiPoly.constant(nvars, p * whole)
    return q0, c_value, r0, rs
