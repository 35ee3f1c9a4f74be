"""Exact enumeration of spherical sets and the counting / character-sum
estimates turned into checkable bounds.

Main terms carry their proven exponents; the implicit constants
are tested at an explicit 4.  Enumeration is lexicographic over canonical
representatives so point lists are reproducible byte for byte.  Complex
sums are assembled from a residue histogram (np.bincount) and a length-p
table of roots of unity, summed with math.fsum, so the only float error is
the final compensated accumulation.  Counts that need no point list,
|V(M) n (V+c)| and |Box_s| for s <= 2, are closed forms from one
congruence diagonalization and the Gauss-sum zero counts of quadrics.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .ffcore import (
    BudgetExceeded, FpMatrix, HypothesisNotMet, MalformedInput, TheoremViolation, rank as mat_rank,
)
from .quadform import AffineSubspace, QuadForm, _congruence_diagonalize, qf_rank
# after quadform, which loads fpoly: loading fpoly here first changes the
# modules' load order, and that order alone moved the lifts and cli
# benchmark times by about 10% on a 2-vCPU VM
from .fpoly import EVAL_CHUNK_CELLS

DEFAULT_BUDGET = 10**8
O_CONSTANT = 4  # explicit stand-in for every O(.) constant at desk scale


class RankHypothesisFailed(HypothesisNotMet):
    pass


class DependentShifts(HypothesisNotMet):
    pass


class CountReport:
    """Exact count against a main term with an error bound.

    Invariant (when the cited rank hypothesis holds):
        |exact - main_term| <= constant_used * error_bound
    """

    def __init__(self, exact, main_term, error_bound):
        self.exact = exact
        self.main_term = Fraction(main_term)
        self.error_bound = float(error_bound)
        self.constant_used = O_CONSTANT

    @property
    def passed(self):
        return abs(self.exact - self.main_term) <= self.constant_used * self.error_bound

    def to_json(self):
        return {
            "exact": self.exact,
            "main_term": float(self.main_term),
            "bound": self.constant_used * self.error_bound,
            "constant": self.constant_used,
            "pass": bool(self.passed),
        }

    def __repr__(self):
        return (
            f"CountReport(exact={self.exact}, main={float(self.main_term)}, "
            f"bound={self.constant_used * self.error_bound:.4g}, pass={self.passed})"
        )


def all_points(p: int, k: int) -> np.ndarray:
    """All of [p]^k as a (p^k, k) array in lexicographic row order."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(p**k, dtype=np.int64)
    cols = []
    for j in range(k):
        cols.append((idx // p ** (k - 1 - j)) % p)
    return np.stack(cols, axis=1)


def _check_count(name, value, least):
    """value counts (h_i, blocks, a norm): an int >= least, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise MalformedInput(f"{name} must be an integer >= {least}, got {value!r}")


def _check_delta(delta, name="delta"):
    """delta bounds a mean or a share of points: it lies in (0, 1]."""
    if not 0 < delta <= 1:  # also rejects nan
        raise MalformedInput(f"{name} must lie in (0, 1], got {delta}")


def _check_budget(size, budget):
    if size > budget:
        raise BudgetExceeded(f"enumeration of size {size} exceeds budget {budget}")


def _check_subspace(M: QuadForm, S: AffineSubspace | None):
    """S against M: its ambient dimension, then its prime."""
    if S is not None:
        if S.dim_ambient != M.d:
            raise MalformedInput(f"subspace of F_p^{S.dim_ambient} for a form in {M.d} variables")
        if S.field.p != M.p:
            raise MalformedInput(f"subspace over F_{S.field.p} for a form over F_{M.p}")


def _check_slice(M: QuadForm, S: AffineSubspace | None, budget):
    """The checks before any work on V(M) n (V + c): the subspace against M,
    then p^d (p^k on V + c) against the budget."""
    _check_subspace(M, S)
    _check_budget(M.p ** (M.d if S is None else S.dim()), budget)


def _inverses(p):
    """x^(p-2) mod p for x in 0..p-1: the inverse of every unit, and 0 at 0."""
    x = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _solve_zeros(M: QuadForm):
    """V(M) as int64 rows in lexicographic order, one line at a time.

    On the line through the prefix x' along the last axis M is
    a t^2 + b(x') t + c(x') (QuadForm.line_coefficients).  With a != 0 the
    roots are (-b +- r) / 2a where r^2 = b^2 - 4ac, read from a table of
    square roots built from r = 0..(p-1)/2; with a = 0 the root of
    b t + c = 0 is -c / b, and a line with b = c = 0 lies in V(M).  Each
    prefix then holds count roots first, first + step, ..., emitted in
    prefix order with the roots ascending."""
    p, d = M.p, M.d
    a, b, c = M.line_coefficients()
    b, c = b.reshape(-1), c.reshape(-1)
    if a:
        inv = pow(2 * a, -1, p)
        # over the discriminant D: how many r have r^2 = D, and r / 2a for
        # one of them, filled from r = 0..(p-1)/2
        r = np.arange((p + 1) // 2, dtype=np.int64)
        sq = r * r % p
        nroots, root = np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
        nroots[sq], root[sq] = 2, r * inv % p
        nroots[0] = 1
        disc = (b * b - 4 * a % p * c) % p
        mid, half = (p - b) * inv % p, root[disc]  # -b / 2a and r / 2a
        t1, t2 = (mid + half) % p, (mid - half) % p
        first, step, count = np.minimum(t1, t2), np.abs(t1 - t2), nroots[disc]
    else:
        first = (-c % p) * _inverses(p)[b] % p
        step = np.ones_like(c)
        count = np.where(b != 0, 1, np.where(c == 0, p, 0))
    line = np.repeat(np.arange(len(count)), count)
    # the index of each row among the roots of its line
    j = np.arange(len(line)) - (np.cumsum(count) - count)[line]
    pts = np.empty((len(line), d), dtype=np.int64)
    pts[:, d - 1] = first[line] + step[line] * j
    for axis in range(d - 2, -1, -1):
        line, pts[:, axis] = np.divmod(line, p)
    return pts


def enumerate_zeros(M: QuadForm, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """V(M), or V(M) n (V + c), as int64 rows in lexicographic order.

    On V + c with basis B (k rows) M is pulled back to the parameters,
    t |-> M(t B + c) (QuadForm.composed), that form in k variables is solved
    by _solve_zeros like V(M) itself, and each row t is mapped to
    (t B + c) mod p and the rows sorted.  A point subspace (k = 0) is its
    offset when M vanishes there.  The subspace is checked against M, and
    p^d (p^k on V + c) against the budget, before any work (_check_slice)."""
    _check_slice(M, S, budget)
    if S is None:
        return _solve_zeros(M)
    if S.dim() == 0:
        return np.array([S.offset] if M.evaluate(S.offset) == 0 else [], dtype=np.int64).reshape(-1, M.d)
    t = _solve_zeros(M.composed(S.basis, S.offset))
    pts = (t @ np.array(S.basis, dtype=np.int64) + np.array(S.offset, dtype=np.int64)) % M.p
    return pts[np.lexsort(pts.T[::-1])]


def _zero_set_class(M: QuadForm, S: AffineSubspace | None = None):
    """(k, r, eta, kappa): what the closed-form counts read of M on V + c.

    M is pulled back to the k parameters of V + c (all of F_p^d when S is
    None) and diagonalized by congruence, x = yT with T A T^T = diag(D),
    so that M = sum_i D_i y_i^2 + u'.y + v with u' = T u.  r is the rank,
    eta the Legendre symbol of D_1..D_r, and kappa = v - sum_i u'_i^2 / 4D_i,
    the constant left once the squares are completed; kappa is None when
    u' has a coordinate past r, that is when u is not in Im A.  A point
    subspace is the form in 0 variables with kappa = M(c)."""
    if S is not None:
        if S.dim() == 0:
            return 0, 0, 1, M.evaluate(S.offset)
        M = M.composed(S.basis, S.offset)
    field, p = M.field, M.p
    T, diag = _congruence_diagonalize(M)
    r = sum(1 for x in diag if x)
    u = T.matvec(M.u)
    if any(u[r:]):
        kappa = None
    else:
        kappa = (M.v - sum(u[i] * u[i] * field.inv(4 * diag[i]) for i in range(r))) % p
    return M.d, r, field.legendre(math.prod(diag[:r])), kappa


def _pencil_classes(p, s):
    """The nonzero xi in F_p^(2^s), s in {0, 2}, counted by the class of the
    corner Gram matrix G = sum_eps xi_eps c_eps^T c_eps, c_eps = (1, eps) in
    F_p^(s+1): ((r_G, eta_G, eta_sigma, w0), count) pairs of Python ints.
    r_G is the rank of G, eta_G the Legendre symbol of its nonzero part
    (det' G), eta_sigma that of sigma = G_00 = sum xi, and w0 says that
    w = G e_0 is 0.  F_xi(X) = sum_eps xi_eps M(c_eps X) has quadratic part
    G (x) A (_box_size).

    At s = 0, G = (xi).  At s = 2, G is the form sum_eps xi_eps l_eps(x)^2
    with l_eps(x) = x_0 + eps_1 x_1 + eps_2 x_2, four linear forms on F_p^3
    any three of which are a basis.  Three zero coordinates of xi give the
    4(p - 1) forms of rank 1, where eta_G = eta_sigma; w = 0 exactly on the
    line of xi = (1, -1, -1, 1), the form 2 x_1 x_2.  Any other rank-2 G
    with sigma = 0 has the isotropic vector e_0 off its radical, so it is a
    hyperbolic plane too: eta_G = eta(-1).  Scaling xi by a non-square turns
    eta_sigma into -eta_sigma and eta_G into (-1)^r_G eta_G, so at rank 2 a
    count does not depend on eta_sigma = +-1, and at rank 3 it depends on
    eta_G and eta_sigma through their product alone.  With q = p - 1 and
    epsilon = eta(-1) the counts are
        rank 1, eta_G = eta_sigma            2q each
        rank 2, w = 0, (epsilon, 0)          q
        rank 2, (epsilon, 0)                 q(3p - 1)
        rank 2, (-epsilon, +-1)              q^2 (p + 3) / 4 each
        rank 2, (epsilon, +-1)               q(p - 3)(p + 1) / 4 each
        rank 3, (+-1, 0)                     q^3 / 2 each
        rank 3, eta_G eta_sigma = epsilon    q(p^3 + 2p^2 - 4p - 1) / 4 each
        rank 3, eta_G eta_sigma = -epsilon   q^2 (p^2 - 3p + 1) / 4 each
    (p^4 - 1 in all).  Each polynomial is fixed by the classification of
    one xi per line at five primes of its class mod 4 and matches it at
    every prime from 5 to 199 (PrimeField takes p >= 5; at p = 3 the counts
    differ); the tests check the table against the class of every xi for
    p <= 23."""
    q, eps = p - 1, 1 if p % 4 == 1 else -1
    if s == 0:
        return tuple(((1, e, e, False), q // 2) for e in (1, -1))
    table = [((1, e, e, False), 2 * q) for e in (1, -1)]
    table += [((2, eps, 0, True), q), ((2, eps, 0, False), q * (3 * p - 1))]
    for f in (1, -1):
        table += [((2, -eps, f, False), q * q * (p + 3) // 4), ((2, eps, f, False), q * (p - 3) * (p + 1) // 4)]
    for e in (1, -1):
        table.append(((3, e, 0, False), q**3 // 2))
        for f in (1, -1):
            count = q * (p**3 + 2 * p * p - 4 * p - 1) if e * f == eps else q * q * (p * p - 3 * p + 1)
            table.append(((3, e, f, False), count // 4))
    return tuple(table)


def _box_size(field, s, form):
    """|Box_s| of the zero set whose _zero_set_class is form, in closed form.

    By orthogonality, with m = (s+1)k variables X = (n, h_1..h_s),
        |Box_s| = p^(-2^s) [p^m + sum over lines [xi] of (p Z(F_xi) - p^m)],
    and each of the p - 1 nonzero points of a line gives its term, so
        |Box_s| = [(p - 1) p^m + sum over xi != 0 of (p Z(F_xi) - p^m)]
                  / ((p - 1) p^(2^s)),
    F_xi(X) = sum_eps xi_eps M(c_eps X): quadratic part G (x) A, linear part
    w (x) u and constant sigma v (_pencil_classes).  As w = G e_0 lies in
    Im G with w^T G^+ w = sigma, the linear part lies in Im(G (x) A) when u
    is in Im A or w = 0; then completing the square leaves the constant
    sigma kappa, and Z(F_xi) = p^(m-r) N_r(Delta, -sigma kappa), with
    r = r_G r_A and Delta = det'G^r_A det'A^r_G.  Otherwise F_xi has a
    linear direction, Z = p^(m-1), and xi adds nothing.  N_r(Delta, t),
    the number of solutions of sum_i D_i y_i^2 = t in F_p^r, is
        p^(r-1) + p^((r-1)/2) eta((-1)^((r-1)/2) t Delta)     r odd,
        p^(r-1) + nu(t) p^((r-2)/2) eta((-1)^(r/2) Delta)     r even,
    nu(0) = p - 1 and nu(t) = -1 otherwise (Lidl-Niederreiter, Finite
    Fields, Thms 6.26-6.27), and [t = 0] at r = 0."""
    p, (k, r_a, eta_a, kappa) = field.p, form
    m = (s + 1) * k
    minus = field.legendre(-1)
    eta_kappa = 0 if kappa is None else field.legendre(kappa)
    total = (p - 1) * p**m
    for (r_g, eta_g, eta_sigma, w0), count in _pencil_classes(p, s):
        if kappa is None and not w0:
            continue
        r = r_g * r_a
        eta_t = 0 if w0 else minus * eta_sigma * eta_kappa  # eta(-sigma kappa)
        if r == 0:
            term = p ** (m + 1) * (eta_t == 0) - p**m
        else:
            # p Z - p^m is p^(m-r+1) times the N_r term past p^(r-1)
            sign = eta_g**r_a * eta_a**r_g * minus ** (r // 2)
            if r % 2:
                term = p ** (m - r // 2) * sign * eta_t
            else:
                term = p ** (m - r // 2) * sign * (p - 1 if eta_t == 0 else -1)
        total += count * term
    box, rest = divmod(total, (p - 1) * p ** 2**s)
    if rest:
        raise TheoremViolation(f"the Box_{s} character sum {total} is not a multiple of (p - 1) p^{2**s}")
    return box


def zero_count_check(M: QuadForm, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """|V(M) n (V+c)| against p^{d-r-1} with error exponent (s-2)/2,
    s = rank of the restricted form (needs s >= 3).  The subspace is checked
    against M first; one congruence diagonalization (_zero_set_class) then
    gives s for the rank check and, once p^d (p^k on V + c) has passed the
    budget, the count in closed form (_box_size at s = 0)."""
    _check_subspace(M, S)
    form = k, s, _, _ = _zero_set_class(M, S)
    if s < 3:
        raise RankHypothesisFailed(f"restricted rank {s} < 3")
    _check_budget(M.p**k, budget)
    exact = _box_size(M.field, 0, form)
    d = M.d
    r = d - k
    main = Fraction(M.p) ** (d - r - 1)
    bound = float(M.p) ** (d - r - 1 - (s - 2) / 2)
    return CountReport(exact, main, bound)


def _roots_of_unity(p: int):
    return [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]


def root_sum(counts, p):
    """sum_t counts[t] e(t/p), each part summed with math.fsum."""
    table = _roots_of_unity(p)
    re = math.fsum(int(c) * table[t].real for t, c in enumerate(counts))
    im = math.fsum(int(c) * table[t].imag for t, c in enumerate(counts))
    return complex(re, im)


def exp_sum(M: QuadForm, xi, budget=DEFAULT_BUDGET):
    """E_{n in V(M)} e(xi . tau(n) / p), exact summands, |error| < 1e-10."""
    if len(xi) != M.d:
        raise MalformedInput(f"xi has length {len(xi)}, the form has d = {M.d}")
    pts = enumerate_zeros(M, None, budget)
    if len(pts) == 0:
        raise RankHypothesisFailed("V(M) is empty")
    p = M.p
    xi_arr = np.array([x % p for x in xi], dtype=np.int64)
    phases = (pts @ xi_arr) % p
    counts = np.bincount(phases, minlength=p)
    if np.count_nonzero(counts) == 1:
        t = int(np.flatnonzero(counts)[0])
        return _roots_of_unity(p)[t]
    z = root_sum(counts, p)
    return complex(z.real / len(pts), z.imag / len(pts))


def exp_sum_bound(M: QuadForm) -> float:
    """The proven decay 4 p^{-(r-2)/2} for nonzero frequencies, rank r >= 3."""
    r = qf_rank(M)
    if r < 3:
        raise RankHypothesisFailed(f"rank {r} < 3")
    return O_CONSTANT * float(M.p) ** (-(r - 2) / 2)


def gauss_sum(p: int, j: int):
    """sum_{n in F_p} e(j n^2 / p); modulus sqrt(p) for j != 0."""
    if j % p == 0:
        raise HypothesisNotMet("j must be nonzero")
    counts = np.bincount(
        np.array([(j * n * n) % p for n in range(p)], dtype=np.int64), minlength=p
    )
    return root_sum(counts, p)


def quadratic_root_count(M: QuadForm, budget=DEFAULT_BUDGET):
    """#{n : M(n) is a square} against p^d / 2: the sum of |V(M - t)| over
    t = 0 and the nonzero squares, each in closed form (_box_size at s = 0).
    M - t differs from M only in v, so its kappa is kappa - t.  The rank r
    is the one _zero_set_class reads, checked before p^d against the
    budget."""
    k, r, eta, kappa = _zero_set_class(M)
    if r < 2:
        raise RankHypothesisFailed(f"rank {r} < 2")
    p = M.p
    _check_budget(p**M.d, budget)
    exact = sum(
        _box_size(M.field, 0, (k, r, eta, None if kappa is None else (kappa - t) % p))
        for t in {x * x % p for x in range(p)}
    )
    main = Fraction(p**M.d, 2)
    expo = -(r - 2) / 2 if r >= 3 else -0.5
    bound = float(main) * float(p) ** expo
    return CountReport(exact, main, bound)


def enumerate_vmh(M: QuadForm, shifts, budget=DEFAULT_BUDGET):
    """V(M)^{h_1..h_r} = V(M) n (intersection of V(M(.+h_i))), lex order:
    the rows n of V(M) with M(n + h) = 0 for each h."""
    field = M.field
    r = len(shifts)
    if any(len(h) != M.d for h in shifts):
        raise MalformedInput(f"every shift must have length d = {M.d}")
    if r:
        if mat_rank(FpMatrix(field, [list(h) for h in shifts])) < r:
            raise DependentShifts("shift vectors are linearly dependent")
    if qf_rank(M) < M.d:
        raise RankHypothesisFailed("M must be non-degenerate")
    if M.d - 2 * r < 3:
        raise RankHypothesisFailed(f"need d - 2r >= 3, got {M.d - 2 * r}")
    pts = enumerate_zeros(M, None, budget)
    for h in shifts:
        pts = pts[M.eval_array((pts + np.array(h, dtype=np.int64)) % M.p) == 0]
    return pts


def vmh_count_report(M: QuadForm, shifts, budget=DEFAULT_BUDGET):
    pts = enumerate_vmh(M, shifts, budget)
    d, r, p = M.d, len(shifts), M.p
    main = Fraction(p) ** (d - r - 1)
    bound = float(p) ** (d - r - 1.5)
    return CountReport(len(pts), main, bound)


def _children(prefix, keep, H, cand, A, p):
    """Lazily, each prefix + (h,) for h in H with keep narrowed by (h A) . x = 0."""
    for h, ha in zip(H, H @ A % p):
        yield prefix + (h,), keep & ((cand @ ha) % p == 0)


def _box_meter(s, budget):
    """charge(units) for the Box_s budget rule: adds units to the total used,
    raises BudgetExceeded once it passes budget, and returns the room left."""
    used = 0

    def charge(units):
        nonlocal used
        used += units
        if used > budget:
            raise BudgetExceeded(f"Box_{s} walk exceeds budget {budget}")
        return budget - used

    return charge


def _walk(n, cand, depth, A, p, charge):
    """The Box_s walk from the base point n over the rows of cand, in their
    order: (prefix, H, room) for each node prefix = (n, h_1..h_{depth-1}),
    H the rows completing it.  A node costs one unit when reached, and room
    is the budget left after it; the caller charges H.  The stack is
    explicit, so depth is bounded by the budget, not the recursion limit."""
    # each entry iterates the children (prefix, mask over cand) of a node
    stack = [iter([((n,), np.ones(len(cand), dtype=bool))])]
    while stack:
        for prefix, keep in stack[-1]:
            room = charge(1)
            H = cand[keep]
            if len(prefix) == depth:
                yield prefix, H, room
            else:
                stack.append(_children(prefix, keep, H, cand, A, p))
                break
        else:
            stack.pop()


def gowers_blocks(M: QuadForm, s: int, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """Walk Box_s(V(M) n (V+c)) in lexicographic order, one block per prefix.

    Yields (prefix, H, room): prefix is (n, h_1..h_{s-1}) as 1-D arrays and
    the rows of H are every h_s completing it (at s = 0 there is one block,
    prefix () and H the zeros).  Each corner n + h lies in the set, so the
    candidates at n are the differences (b - n) mod p over its rows b, in lex
    order; each h_i of the prefix narrows them by (h_i A) . h = 0, and cube
    membership reduces to these pairwise conditions (_walk).  The witness
    scans read it; gowers_set counts the same tuples on the unsorted walk.

    Budget: one unit per tuple (n, h_1..h_t), t <= s.  A prefix is charged
    when the walk reaches it, the rows of H when the consumer resumes after
    them, so a scan that stops inside H pays only for what it read; room is
    the budget left before H."""
    _check_count("s", s, 0)
    p, d = M.p, M.d
    base = enumerate_zeros(M, S, budget)
    charge = _box_meter(s, budget)
    if s == 0:
        yield (), base, budget
        charge(len(base))
        return
    A = np.array(M.A.rows, dtype=np.int64)
    # rows in lex order by the key sum_j h_j p^(d-1-j), Python ints past int64
    kind = np.int64 if p**d < 2**63 else object
    weights = np.array([p ** (d - 1 - j) for j in range(d)], dtype=kind)
    for n in base:
        cand = (base - n) % p
        cand = cand[np.argsort(cand.astype(kind) @ weights)]
        for prefix, H, room in _walk(n, cand, s, A, p, charge):
            yield prefix, H, room
            charge(len(H))


def _pair_zeros(H, A, p, charge):
    """The zero entries of (H A) . H^T mod p, that is the pairs (h, h') of
    rows with (h A) . h' = 0, counted and charged EVAL_CHUNK_CELLS cells at a
    time."""
    HA, HT = H @ A % p, H.T
    step = max(1, EVAL_CHUNK_CELLS // max(1, len(H)))
    total = 0
    for start in range(0, len(H), step):
        zeros = int(np.count_nonzero(HA[start : start + step] @ HT % p == 0))
        charge(zeros)
        total += zeros
    return total


def gowers_set(M: QuadForm, s: int, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """|Box_s(V(M) n (V+c))|: the number of tuples (n, h_1..h_s) whose full
    cube lies in the set (the points n themselves at s = 0).

    For s <= 2 nothing is enumerated: with N = |V(M) n (V+c)| and
    |Box_2| in closed form (_box_size), and |Box_1| = N^2, since n and
    n + h_1 range over the set independently.  For s >= 3 the candidates at
    n are (b - n) mod p over the rows b, unsorted; _walk reaches the nodes
    (n, h_1..h_{s-2}) as in gowers_blocks, and a node whose candidate rows
    are H has |H| children and, as their leaves, the pairs of H with
    (h A) . h' = 0 (_pair_zeros).

    Budget: gowers_blocks' rule, one unit per tuple (n, h_1..h_t), t <= s,
    so it raises exactly when that walk does, with its message.  The subspace
    and p^d (p^k on V + c) are checked first, as by enumerate_zeros; then
    |Box_0|, |Box_1| and |Box_2| are charged in turn, so a budget below
    N (N + 1) is refused before any Box_2 work, and for s >= 3 before the
    walk, which then charges its own tuples from the start.  On F_p^d the
    tuples as rows n | h_1 | .. | h_s are
    enumerate_mset(gowers_family(M, s), M, s + 1)."""
    _check_count("s", s, 0)
    _check_slice(M, S, budget)
    charge = _box_meter(s, budget)
    form = _zero_set_class(M, S)
    N = _box_size(M.field, 0, form)
    charge(N)
    if s == 0:
        return N
    charge(N * N)
    if s == 1:
        return N * N
    box2 = _box_size(M.field, 2, form)
    charge(box2)
    if s == 2:
        return box2
    p = M.p
    base = enumerate_zeros(M, S, budget)
    charge = _box_meter(s, budget)
    A = np.array(M.A.rows, dtype=np.int64)
    count = 0
    for n in base:
        for _, H, _ in _walk(n, (base - n) % p, s - 1, A, p, charge):
            charge(len(H))
            count += _pair_zeros(H, A, p, charge)
    return count


def gowers_count_report(M: QuadForm, s: int, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """|Box_s(V(M) n (V+c))|, counted by gowers_set (in closed form for
    s <= 2, with the walk's budget rule), against
    p^{(s+1)(d-r) - (s(s+1)/2 + 1)}, r the codimension of V + c.

    The main term is the proven one when rank(M|_{V+c}) >= s^2 + s + 3; the
    report still carries it otherwise so callers can inspect the ratio.
    """
    count = gowers_set(M, s, S, budget)
    p = M.p
    d_eff = M.d if S is None else S.dim()
    main = Fraction(p) ** ((s + 1) * d_eff - (s * (s + 1) // 2 + 1))
    bound = float(main) * p**-0.5
    return CountReport(count, main, bound)

