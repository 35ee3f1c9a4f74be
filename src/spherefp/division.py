"""Long division by quadratic forms and the solvable polynomial equations
on quadrics: Nullstellensatz certificates, the containment dichotomy,
anti-derivatives, intrinsic-polynomial decompositions, the Gowers-cube
equation, and the Z/p lifts of all of these.

Every solver re-verifies what it returns, exactly.  F_p certificates are
multiplied out and compared.  The Z/p certificates (the sphere-vanishing
and periodic decompositions and the lifted Nullstellensatz) are checked on
integer values instead of Fraction products: fpoly._simplex_grid_sum
evaluates each factor of the identity, denominators cleared, on the
simplex grid of degree D, the largest total degree of a summand.  A
polynomial of degree <= D that vanishes on that grid is zero, since its
binomial coordinates are its forward differences there, so the grid
decides the identity.  Witness searches scan lexicographically and stop at
the first violation, so outcomes are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from ._zlinalg import _hermite_reduce, int_solve
from .counting import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    RankHypothesisFailed,
    _box_size,
    _check_count,
    _check_delta,
    _metered_gowers_set,
    _zero_set_class,
    enumerate_zeros,
    first_zero,
    gowers_blocks,
    zero_chunks,
)
from .ffcore import FpMatrix, HypothesisFailed, HypothesisNotMet, MalformedInput, PrimeField
from .ffcore import TheoremViolation, matrix_inverse
from .fpoly import (
    ArityMismatch,
    FpMultiPoly,
    RatMultiPoly,
    ValueRangeError,
    _binom_basis_indices,
    _fiber_coefficient_table,  # re-exported: bench/tracing.py wraps it by this name
    _first_noninteger_fiber,
    _quadratic_terms,
    _verify_grid_identity,
    induce,
    p_expand,
    regular_lift,
)
from .quadform import QuadForm, qf_rank


class PivotZero(HypothesisNotMet):
    pass


class ZeroMatrix(HypothesisNotMet):
    pass


class WitnessFound(HypothesisNotMet):
    def __init__(self, witness):
        super().__init__(f"witness {witness}")
        self.witness = witness


class NotSphereIntegral(HypothesisNotMet):
    def __init__(self, witness):
        super().__init__(f"not integer valued on the quadric: {witness}")
        self.witness = witness


class NotPartiallyPeriodic(HypothesisNotMet):
    def __init__(self, witness):
        super().__init__(f"not partially p-periodic on the quadric: {witness}")
        self.witness = witness


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
        raise MalformedInput("pivot_change needs a symmetric matrix")
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
        """The polynomial R with P = M R when the remainders vanish; a
        nonzero remainder raises HypothesisNotMet."""
        if not self.remainder_is_zero():
            raise HypothesisNotMet("nonzero remainder")
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


def bij_division(P: FpMultiPoly, M: QuadForm) -> DivisionCert:
    """B_{i,j}-standard long division: pivot first, then divide."""
    if P.degree() >= M.p:
        raise ValueRangeError("division requires deg(P) < p")
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
    _check_nullstellensatz_range(P, M)
    return _nullstellensatz_core(P, M, budget)


def _check_nullstellensatz_range(P: FpMultiPoly, M: QuadForm):
    if not (M.p >= 5 and M.p > 2 * P.degree()):
        raise ValueRangeError("needs p >= 5 and p > 2 deg(P)")


def _nullstellensatz_core(P: FpMultiPoly, M: QuadForm, budget=DEFAULT_BUDGET):
    if qf_rank(M) < 3:
        raise RankHypothesisFailed("nullstellensatz needs rank(M) >= 3")
    cert = bij_division(P, M)
    if cert.remainder_is_zero():
        return "certificate", _checked_quotient(cert, P, M)
    # V(M) chunk by chunk: the scan stops at the first chunk with a witness
    for zeros in zero_chunks(M, budget):
        bad = np.flatnonzero(P.eval_array(zeros))
        if len(bad):
            return "witness", tuple(int(x) for x in zeros[bad[0]])
    raise TheoremViolation("V(M) contained in V(P) but the division has a remainder")


def _checked_quotient(cert, P, M):
    """R with P = M R from a division with zero remainder, multiplied out
    and compared."""
    R = cert.divisor_multiple()
    if M.as_poly() * R != P:
        raise TheoremViolation("quotient re-multiplication failed")
    return R


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
    theorem and raises.

    Within the budget V(M) is enumerated first, as the division would cost
    about as much as the whole verdict on a small set: only count = total
    divides (with p >= 5 and p > 2 deg P, as nullstellensatz asks), and a
    nonzero remainder then contradicts the theorem.  When V(M) does not fit
    the budget only the certificate can answer: a zero remainder (with
    p > 2 deg P) gives count = total = |V(M)|, counted in closed form, and
    any other P gets the enumeration's refusal."""
    _check_delta(delta)
    if qf_rank(M) < 3:
        raise RankHypothesisFailed("dichotomy needs rank(M) >= 3")
    refusal = None
    try:
        zeros = enumerate_zeros(M, None, budget)
    except BudgetExceeded as exc:
        if 2 * P.degree() >= M.p:
            raise
        refusal = exc
    if refusal is None:
        vals = P.eval_array(zeros)
        count = int((vals == 0).sum())
        total = len(zeros)
        if count < total:
            if count <= delta * total:
                bad = np.flatnonzero(vals != 0)
                witness = tuple(int(x) for x in zeros[bad[0]])
                return DichotomyVerdict("small", count, total, witness=witness)
            raise TheoremViolation(
                f"middle ground: {count} of {total} zeros at delta={delta}"
            )
        _check_nullstellensatz_range(P, M)
    cert = bij_division(P, M)
    if not cert.remainder_is_zero():
        if refusal is not None:
            raise refusal
        raise TheoremViolation("V(M) contained in V(P) but the division has a remainder")
    if refusal is not None:
        count = total = _box_size(M.field, 0, _zero_set_class(M))
    return DichotomyVerdict("contained", count, total, certificate=_checked_quotient(cert, P, M))


# -- anti-derivative -------------------------------------------------------------


def antiderivative(Q: FpMultiPoly, M: QuadForm, budget=DEFAULT_BUDGET):
    """Given d1M diQ = diM d1Q on V(M) for all i and Q(0) = 0, produce Q'
    with Q = M Q'.  Hypothesis failures carry (i, witness point).  A zero
    remainder, Q = M W, is the answer and proves the hypothesis (each
    d1M diQ - diM d1Q is M (d1M diW - diM d1W)), so only a Q that M does not
    divide, or one of degree >= p, is scanned, under budget."""
    if Q.constant_term() != 0:
        raise HypothesisNotMet("antiderivative requires Q(0) = 0")
    if qf_rank(M) < 3:
        raise RankHypothesisFailed("antiderivative needs rank(M) >= 3")
    cert = bij_division(Q, M) if Q.degree() < M.p else None
    if cert is not None and cert.remainder_is_zero():
        return cert.divisor_multiple()
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
    cert = cert or bij_division(Q, M)  # raises ValueRangeError at deg Q >= p
    if cert.r1.is_zero() and cert.r0.degree() <= 0:
        # The proof machinery yields Q = M W + a; when M(0) != 0 the
        # normalization Q(0) = 0 does not force a = 0, so the stated
        # conclusion can fail by a constant (e.g. Q = n.n, M = n.n - r).
        raise TheoremViolation(
            "anti-derivative differs from a multiple of M by the nonzero "
            f"constant {cert.r0.constant_term()}"
        )
    raise TheoremViolation("anti-derivative hypothesis holds but M does not divide Q")


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


def _cube_differences(g: FpMultiPoly, n, hs):
    """Delta_{h_s} ... Delta_{h_1} g(n) for every row at once.

    n and each h_t are a point (d,) or an (N, d) array, broadcast together;
    the 2^s corners n + sum_{t in mask} h_t go through one eval_array and
    are summed with signs (-1)^{s - |mask|}.  Returns an (N,) residue array
    (N = 1 when every argument is a single point).
    """
    p = g.p
    s = len(hs)
    n = np.atleast_2d(np.asarray(n, dtype=np.int64))
    hs = [np.atleast_2d(np.asarray(h, dtype=np.int64)) for h in hs]
    rows = np.broadcast_shapes(n.shape, *(h.shape for h in hs))[0]
    corners = np.empty((1 << s, rows, g.nvars), dtype=np.int64)
    corners[0] = n
    signs = np.empty(1 << s, dtype=np.int64)
    signs[0] = -1 if s % 2 else 1
    for t, h in enumerate(hs):
        # masks with top bit t: the masks below it, shifted by h_t
        half = 1 << t
        corners[half : 2 * half] = corners[:half] + h
        signs[half : 2 * half] = -signs[:half]
    vals = g.eval_array(corners.reshape(-1, g.nvars) % p).reshape(1 << s, rows)
    return (signs @ vals) % p


def _first_cube(M: QuadForm, s: int, budget, values):
    """First (n, h_1..h_s) in Box_s(V(M)), lexicographic, on which
    values(n, [h_1..h_s]) is nonzero mod p; None if the walk completes
    without one.  values takes a block at once, its h_s a stack of rows cut
    where the budget ends, so the budget (gowers_blocks' rule) pays for the
    tuples up to and including the witness."""
    for prefix, H, room in gowers_blocks(M, s, None, budget):
        pts = [*prefix, H[:room]]
        hit = np.flatnonzero(values(pts[0], pts[1:]) % M.p)
        if len(hit):
            return tuple(tuple(int(x) for x in pt) for pt in (*prefix, H[hit[0]]))
    return None


def _check_arity(M: QuadForm, *polys):
    """Each polynomial takes the points of F_p^d, d = M.d: refused before any
    enumeration, with the message eval_array gives a point of another length."""
    if any(f.nvars != M.d for f in polys):
        raise ArityMismatch("point arity mismatch")


def first_gowers_witness(g: FpMultiPoly, M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    """First (n, h_1..h_s) in Box_s(V(M)), lexicographic, with a nonzero
    s-fold difference of g; None if the scan (_first_cube) completes without one.
    s, then the arity of g, are checked before any enumeration."""
    _check_count("s", s, 0)
    _check_arity(M, g)
    return _first_cube(M, s, budget, partial(_cube_differences, g))


def intrinsic_decompose(g: FpMultiPoly, M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    """Either ('decomposition', g1, g2) with g = M g1 + g2 and
    deg g1 <= s - 2, deg g2 <= s - 1, or ('witness', cube) with a Gowers
    cube on which the s-fold difference of g does not vanish."""
    if g.degree() > s:
        raise ValueRangeError("deg(g) must be at most s")
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


def gowers_equation_solve(P: FpMultiPoly, Q: FpMultiPoly, M: QuadForm, s: int, budget=DEFAULT_BUDGET):
    """Solve the cube equation on all of Box_s(V(M)):

        Delta_{h_{s-1}}..Delta_{h_1} P(n) + Delta_{h_s}..Delta_{h_1} Q(n) = 0

    (the P-block is P(n) itself when s = 1).  Returns ('factorization',
    P1, P2, Q1, Q2) with P = M P1 + P2, Q = M Q1 + Q2 and the degree bounds
    deg P2 <= s - 2, deg Q2 <= s - 1, or ('witness', cube) with the
    lexicographically first cube (n, h_1..h_s) on which the equation fails.

    After the s, rank and arity checks the factorization is tried, as in
    intrinsic_decompose; it is a proof on its own and takes no budget: every
    corner of a Box_s cube lies in V(M), so the M P1 and M Q1 terms vanish
    on it, and the differences of P2 and Q2 vanish by degree.  Only when a
    reduction fails is Box_s scanned (_first_cube), at every s, after the
    walk's fit check (_metered_gowers_set), so a Box_s that does not fit is
    refused before anything is evaluated."""
    _check_count("s", s, 1)  # the P-block takes s - 1 differences
    if qf_rank(M) < s + 3:
        raise RankHypothesisFailed("needs rank(M) >= s + 3")
    _check_arity(M, P, Q)
    rp = reduce_mod_form(P, M, s - 2)
    rq = reduce_mod_form(Q, M, s - 1)
    if rp is not None and rq is not None:
        return "factorization", *rp, *rq
    _metered_gowers_set(M, s, None, budget)
    witness = _first_cube(
        M, s, budget, lambda n, hs: _cube_differences(P, n, hs[:-1]) + _cube_differences(Q, n, hs)
    )
    if witness is None:
        raise TheoremViolation(
            "cube equation holds on Box_s but a factorization does not exist"
        )
    return "witness", witness


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
                    raise MalformedInput("A must be symmetric")
        self.u = [int(x) for x in ([0] * self.d if u is None else u)]
        if len(self.u) != self.d:
            raise MalformedInput("u has wrong length")
        self.v = int(v)

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
        return RatMultiPoly(self.d, _quadratic_terms(self.A, self.u, self.v))

    def as_ratpoly(self) -> RatMultiPoly:
        return self.integer_poly().scale(Fraction(1, self.p))

    def sphere_points(self, budget=DEFAULT_BUDGET):
        """tau(V(M-bar)): the base integer points of V_p(M) inside [p]^d, as
        enumerate_zeros' (N, d) int64 rows in lex order.  With sphere_chunks,
        the one source of V_p(M) base points."""
        return enumerate_zeros(self.induced(), None, budget)

    def sphere_chunks(self, budget=DEFAULT_BUDGET):
        """The rows of sphere_points in zero_chunks' chunks, for a scan
        that holds one chunk at a time; the budget is checked at the call."""
        return zero_chunks(self.induced(), budget)

    def to_json(self):
        return {"p": self.p, "A": self.A, "u": self.u, "v": self.v}

    @classmethod
    def from_json(cls, obj):
        return cls(PrimeField(obj["p"]).p, obj["A"], obj.get("u"), obj.get("v", 0))


def lift_nullstellensatz(P: RatMultiPoly, M: ZpQuadForm, budget=DEFAULT_BUDGET):
    """Lifted Nullstellensatz: for Z/p-valued P vanishing into Z on V_p(M),
    produce (P1 integer coefficients, P0 integer valued) with P = M P1 + P0;
    otherwise raise WitnessFound(n) with M(n) in Z, P(n) not in Z."""
    p = M.p
    s = P.degree()
    if s >= p:
        raise ValueRangeError("needs deg(P) < p")
    if not P.takes_z_over_p_values(p):
        raise ValueRangeError("P must take values in Z/p")
    if M.p_rank() < 3:
        raise RankHypothesisFailed("needs p-rank >= 3")
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
    _verify_grid_identity(P.nvars, [(1, [m_rat, P1]), (1, [P0]), (-1, [P])], "lifted certificate")
    return P1, P0


# -- p-expansion solvers (solution shapes as exact integer linear systems) ------


# Distinct (form, degree, solution shape) systems whose Hermite reduction is
# kept.  A solver sweep over one form meets one system per degree and
# solution shape; the degree-4 systems at p = 5, d = 4 (70 x 86) take about
# 0.2 MB with their reduction, so a full memo stays in the low megabytes.
REDUCTION_CACHE_SIZE = 16


def _times_variable(col, j):
    """n_j col for col = {a: c} standing for sum_a c C(n, a), by
    n_j C(n_j, a_j) = (a_j + 1) C(n_j, a_j + 1) + a_j C(n_j, a_j)."""
    out = {}
    for a, c in col.items():
        k = a[j]
        up = a[:j] + (k + 1,) + a[j + 1 :]
        out[up] = out.get(up, 0) + (k + 1) * c
        if k:
            out[a] = out.get(a, 0) + k * c
    return out


def _add_into(out, scale, col):
    """out += scale col, coordinate-wise; nothing when scale is 0."""
    if scale:
        for a, c in col.items():
            out[a] = out.get(a, 0) + scale * c


def _times_form(col, A, u, v):
    """N col for N = (nA)n + u.n + v = sum_j n_j (sum_l A_jl n_l + u_j) + v,
    all in binomial coordinates."""
    moved = [_times_variable(col, j) for j in range(len(A))]
    out = {}
    _add_into(out, v, col)
    for j, row in enumerate(A):
        inner = {}
        _add_into(inner, u[j], col)
        for a_jl, n_l_col in zip(row, moved):
            _add_into(inner, a_jl, n_l_col)
        _add_into(out, 1, _times_variable(inner, j))
    return out


def _system_matrix(M: ZpQuadForm, df, blocks):
    """The columns p^k N^i C(n, idx) with N = p M, for each block
    (i, k, indices) and idx in indices, in binomial coordinates up to degree
    df: rows in _binom_basis_indices(M.d, df) order, as fresh lists.  Each
    column is built in closed form, one factor N at a time (_times_form)."""
    pos = {g: r for r, g in enumerate(_binom_basis_indices(M.d, df))}
    cols = []
    for i, k, indices in blocks:
        for idx in indices:
            col = {idx: M.p**k}
            for _ in range(i):
                col = _times_form(col, M.A, M.u, M.v)
            cols.append(col)
    rows = [[0] * len(cols) for _ in pos]
    for c, col in enumerate(cols):
        for a, x in col.items():
            rows[pos[a]][c] = x
    return rows


@lru_cache(maxsize=REDUCTION_CACHE_SIZE)
def _reduced_system(p, A, u, v, df, blocks, drop):
    """_hermite_reduce of _system_matrix(ZpQuadForm(p, A, u, v), df, blocks)
    without its first drop rows.  Keyed on values, since ZpQuadForm fields
    are mutable; a hit neither builds nor hashes the matrix."""
    return _hermite_reduce(_system_matrix(ZpQuadForm(p, A, u, v), df, blocks)[drop:])


def _solve_system(M: ZpQuadForm, df, blocks, drop, rhs):
    """One integer solution z of A z = rhs, or None, where A is the system
    of (M, df, blocks) without its first drop rows; the reduction of A
    comes from the one memo, _reduced_system."""
    key = tuple((i, k, tuple(indices)) for i, k, indices in blocks)
    reduction = _reduced_system(M.p, tuple(map(tuple, M.A)), tuple(M.u), M.v, df, key, drop)
    return int_solve(reduction, rhs, sum(len(indices) for _, _, indices in blocks))


def _scaled_rhs(nums, den, indices, p, depth):
    """[nums[idx] * p^depth / den for idx in indices] if all are integers, else None."""
    scaled = [nums.get(idx, 0) * p**depth for idx in indices]
    if any(c % den for c in scaled):
        return None
    return [c // den for c in scaled]


def _scan_fibers(f, M, budget, error, skip_constant=False):
    """Raise error(witness) at the first fiber of f over V_p(M) with a
    non-integral binomial coordinate (the constant one passed over when
    skip_constant), if there is one: the fiber at the first point of V_p(M)
    (counting.first_zero) first, then V_p(M) chunk by chunk only if that one
    passes, each under budget, stopping at the first chunk with a witness.
    The chunks come in lexicographic order, so that witness is the one a
    scan of all of V_p(M) finds.  With an l-part (_solve_certificate_first)
    no fiber passes."""
    first = first_zero(M.induced(), budget)
    witness = first and _first_noninteger_fiber(f, [first], M.p, skip_constant)
    if first and not witness:
        scans = (_first_noninteger_fiber(f, chunk, M.p, skip_constant) for chunk in M.sphere_chunks(budget))
        witness = next(filter(None, scans), None)
    if witness:
        raise error(witness)


def _solve_certificate_first(solve, what, certify, scan):
    """certify(z) for the integer solution z = solve() of the system.

    When solve answers and certify accepts, the certificate itself proves
    the hypothesis that scan() checks, so scan is not called.  Every other
    path calls scan() before anything that can raise, so its witness
    outranks a failed solve or re-verify."""
    # The paper's Q0 is always 1 here.  Were Q0 != 1, a binomial coordinate of
    # f in the index set (periodic: all but the zero index) would have a prime
    # l != p in its denominator.  As n0 + pZ^d is dense in Z_l^d, integer fiber
    # coordinates at n0 would make f (periodic: f - f(n0)) l-integral on Z_l^d,
    # and so its binomial coordinates (Mahler).  So every fiber fails, and as
    # V_p(M) is nonempty at p-rank >= 3, scan() raises on the rhs-is-None path.
    z = solve()
    if z is not None:
        try:
            return certify(z)
        except TheoremViolation:
            scan()
            raise
    scan()
    # Nor can a p-free rescale c help: block 0 is p^e I (e = deg f // 2, or
    # s* - 1 off the periodic system's dropped zero index), so with
    # c c' = 1 mod p^e, c' z solves A z = c c' rhs, and moving (c c' - 1) / p^e
    # rhs off block 0 solves A z = rhs.  Hermite int_solve is complete, so None is final.
    raise TheoremViolation(f"no integer {what}")


def _block_polys(nvars, blocks, z):
    """{i: the polynomial sum_idx z_(i, idx) C(n, idx)} per block (i, k,
    indices), reading z in block order."""
    out, pos = {}, 0
    for i, _, indices in blocks:
        out[i] = RatMultiPoly.from_binomial(nvars, dict(zip(indices, z[pos : pos + len(indices)])))
        pos += len(indices)
    return out


def sphere_vanishing_decompose(f: RatMultiPoly, M: ZpQuadForm, budget=DEFAULT_BUDGET):
    """Solve f = sum_i M^i R_i with R_i integer valued of degree <= deg(f) - 2i
    for f integer valued on V_p(M); returns (1, [R_i]), the paper's Q0 being 1.

    The solution shape is an exact integer linear system in the binomial
    coordinates of the R_i, certified on the simplex grid.  Certificate
    first: a solution that re-verifies proves the hypothesis (f = sum M^i R_i
    is an integer wherever M is), so V_p(M) is not enumerated and nothing is
    charged to budget.  Every other outcome scans the fibers of f under
    budget first, so a NotSphereIntegral witness outranks a failed solve.
    """
    p = M.p
    df = f.degree()
    if df >= p:
        raise ValueRangeError("needs deg(f) < p")
    if M.p_rank() < 3:
        raise RankHypothesisFailed("needs p-rank >= 3")
    if df < 0:
        return 1, [RatMultiPoly.zero(f.nvars)]
    scan = partial(_scan_fibers, f, M, budget, NotSphereIntegral)
    t = df // 2
    nums, nums_den = f._binomial_numerators()
    rhs = _scaled_rhs(nums, nums_den, _binom_basis_indices(f.nvars, df), p, t)
    if rhs is None:  # p^t f is integer valued (the second clause) iff rhs exists
        scan()
        raise TheoremViolation("p-adic depth of f exceeds floor(deg f / 2); no decomposition exists")
    blocks = [(i, t - i, _binom_basis_indices(f.nvars, df - 2 * i)) for i in range(t + 1)]
    m_rat = M.as_ratpoly()

    def certify(z):
        rs = list(_block_polys(f.nvars, blocks, z).values())  # blocks i = 0..t
        summands = [(1, [f])] + [(-1, [m_rat] * i + [r]) for i, r in enumerate(rs)]
        _verify_grid_identity(f.nvars, summands, "sphere-vanishing decomposition")
        return 1, rs

    solve = partial(_solve_system, M, df, blocks, 0, rhs)
    return _solve_certificate_first(solve, "sphere-vanishing decomposition", certify, scan)


def sphere_periodic_decompose(f: RatMultiPoly, M: ZpQuadForm, budget=DEFAULT_BUDGET):
    """Solve f = C + R_0/p + sum_{i>=2} M^i R_i for f partially p-periodic on
    V_p(M); R_i integer valued, C a free rational constant.  Returns
    (1, C, R_0, {i: R_i}), Q0 = 1 as in sphere_vanishing_decompose.

    Certificate first, as sphere_vanishing_decompose: a solution that
    re-verifies proves partial periodicity (R_0(n0 + p m) = R_0(n0) mod p
    since deg R_0 < p), so V_p(M) is not enumerated; every other outcome
    scans the fibers under budget first, and a NotPartiallyPeriodic witness
    outranks a failed solve.
    """
    p = M.p
    df = f.degree()
    if df >= p:
        raise ValueRangeError("needs deg(f) < p")
    if M.p_rank() < 3:
        raise RankHypothesisFailed("needs p-rank >= 3")
    scan = partial(_scan_fibers, f, M, budget, NotPartiallyPeriodic, skip_constant=True)
    nvars = f.nvars
    t = df // 2
    s_star = max(1, t)
    # the constant term of f only moves the zero coordinate, which C absorbs
    nums, nums_den = f._binomial_numerators()
    eq_indices = _binom_basis_indices(nvars, df)[1:]  # all but the zero index
    rhs = _scaled_rhs(nums, nums_den, eq_indices, p, s_star)
    if rhs is None:
        scan()
        raise TheoremViolation("p-adic depth exceeds the periodic decomposition shape")
    # R_0 without its constant coordinate (redundant with C), then M^i R_i
    blocks = [(0, s_star - 1, eq_indices)] + [
        (i, s_star - i, _binom_basis_indices(nvars, df - 2 * i)) for i in range(2, t + 1)
    ]
    m_rat = M.as_ratpoly()

    def certify(z):
        rs = _block_polys(nvars, blocks, z)
        r0 = rs.pop(0)
        # f - R_0/p - sum M^i R_i must be the constant C: equal to its
        # value at the origin everywhere on the grid
        summands = [(1, [f]), (Fraction(-1, p), [r0])] + [(-1, [m_rat] * i + [r]) for i, r in rs.items()]
        c_value = _verify_grid_identity(nvars, summands, "periodic decomposition", constant=True)
        # normalize: integer-over-p and integer parts of the constant belong
        # to the R_0 / p slot, so e.g. f = g/p comes back as (C, R_0) = (0, g)
        den = c_value.denominator
        if den % p == 0 and (den // p) % p != 0:
            k = c_value.numerator * pow(den // p, -1, p) % p
            c_value -= Fraction(k, p)
            r0 = r0 + RatMultiPoly.constant(nvars, k)
        whole = c_value.numerator // c_value.denominator
        if whole:
            c_value -= whole
            r0 = r0 + RatMultiPoly.constant(nvars, p * whole)
        return 1, c_value, r0, rs

    solve = partial(_solve_system, M, df, blocks, 1, rhs)
    return _solve_certificate_first(solve, "periodic decomposition", certify, scan)
