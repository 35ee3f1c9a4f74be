"""Exact enumeration of spherical sets and the counting / character-sum
estimates turned into checkable bounds.

Main terms carry their proven exponents; the implicit constants
are tested at an explicit 4.  Enumeration is lexicographic over canonical
representatives so point lists are reproducible byte for byte.  Complex
sums are assembled from a residue histogram (np.bincount) and a length-p
table of roots of unity, summed with math.fsum, so the only float error is
the final compensated accumulation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .ffcore import BudgetExceeded, FpMatrix, HypothesisNotMet, MalformedInput, rank as mat_rank
from .quadform import AffineSubspace, QuadForm, qf_rank, restricted_rank
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


def _check_s(s, least=0):
    """s counts the h_i of a Box_s tuple: an int >= least, never a bool."""
    if isinstance(s, bool) or not isinstance(s, int) or s < least:
        raise MalformedInput(f"s must be an integer >= {least}, got {s!r}")


def _check_budget(size, budget):
    if size > budget:
        raise BudgetExceeded(f"enumeration of size {size} exceeds budget {budget}")


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
    p^d (p^k on V + c) against the budget, before any work."""
    if S is None:
        _check_budget(M.p**M.d, budget)
        return _solve_zeros(M)
    if S.dim_ambient != M.d:
        raise MalformedInput(f"subspace of F_p^{S.dim_ambient} for a form in {M.d} variables")
    if S.field.p != M.p:
        raise MalformedInput(f"subspace over F_{S.field.p} for a form over F_{M.p}")
    _check_budget(M.p ** S.dim(), budget)
    if S.dim() == 0:
        return np.array([S.offset] if M.evaluate(S.offset) == 0 else [], dtype=np.int64).reshape(-1, M.d)
    t = _solve_zeros(M.composed(S.basis, S.offset))
    pts = (t @ np.array(S.basis, dtype=np.int64) + np.array(S.offset, dtype=np.int64)) % M.p
    return pts[np.lexsort(pts.T[::-1])]


def zero_count_check(M: QuadForm, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """|V(M) n (V+c)| against p^{d-r-1} with error exponent (s-2)/2,
    s = rank of the restricted form (needs s >= 3)."""
    if S is None:
        s = qf_rank(M)
        r = 0
    else:
        s = restricted_rank(M, S)
        r = S.codim()
    if s < 3:
        raise RankHypothesisFailed(f"restricted rank {s} < 3")
    exact = len(enumerate_zeros(M, S, budget))
    d = M.d
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
    if not xi_arr.any():
        return complex(1.0, 0.0)
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
    """#{n : M(n) is a square} against p^d / 2."""
    r = qf_rank(M)
    if r < 2:
        raise RankHypothesisFailed(f"rank {r} < 2")
    p = M.p
    _check_budget(p**M.d, budget)
    squares = np.zeros(p, dtype=bool)
    for x in range(p):
        squares[(x * x) % p] = True
    exact = int(squares[M.grid_values()].sum())
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


def gowers_blocks(M: QuadForm, s: int, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """Walk Box_s(V(M) n (V+c)) in lexicographic order, one block per prefix.

    Yields (prefix, H, room): prefix is (n, h_1..h_{s-1}) as 1-D arrays and
    the rows of H are every h_s completing it (at s = 0 there is one block,
    prefix () and H the zeros).  Each corner n + h lies in the set, so the
    candidates at n are the differences (b - n) mod p over its rows b, in lex
    order; each h_i of the prefix narrows them by (h_i A) . h = 0, and cube
    membership reduces to these pairwise conditions.  The walk keeps its own
    stack, so s is bounded by the budget and not by the recursion limit.
    The witness scans walk it; gowers_set counts the same tuples without it.

    Budget: one unit per tuple (n, h_1..h_t), t <= s.  A prefix is charged
    when the walk reaches it, the rows of H when the consumer resumes after
    them, so a scan that stops inside H pays only for what it read; room is
    the budget left before H."""
    _check_s(s)
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
        # each entry iterates the children (prefix, mask over cand) of a node
        stack = [iter([((n,), np.ones(len(cand), dtype=bool))])]
        while stack:
            for prefix, keep in stack[-1]:
                room = charge(1)
                H = cand[keep]
                if len(prefix) == s:
                    yield prefix, H, room
                    charge(len(H))
                else:
                    stack.append(_children(prefix, keep, H, cand, A, p))
                    break
            else:
                stack.pop()


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
    cube lies in the set (the points n themselves at s = 0), counted without
    walking the tuples of the last two levels.

    With N points there are N tuples (n) and N^2 tuples (n, h_1), so
    |Box_1| = N^2.  For s >= 2 the candidates at n are (b - n) mod p over the
    rows b, unsorted; the nodes (n, h_1..h_{s-2}) are narrowed by masks as in
    gowers_blocks (_children), and a node whose candidate rows are H has |H|
    children and, as its leaves, the pairs of H with (h A) . h' = 0.

    Budget: gowers_blocks' rule, one unit per tuple (n, h_1..h_t), t <= s, so
    it raises exactly when that walk does.  The N(N + 1) tuples of the first
    two levels are charged before any pair product is built.  On F_p^d the
    tuples as rows n | h_1 | .. | h_s are
    enumerate_mset(gowers_family(M, s), M, s + 1)."""
    _check_s(s)
    p = M.p
    base = enumerate_zeros(M, S, budget)
    N = len(base)
    charge = _box_meter(s, budget)
    if s == 0:
        charge(N)
        return N
    charge(N * (N + 1))
    if s == 1:
        return N * N
    A = np.array(M.A.rows, dtype=np.int64)
    count = 0
    for n in base:
        cand = (base - n) % p
        stack = [iter([((n,), np.ones(N, dtype=bool))])]
        while stack:
            for prefix, keep in stack[-1]:
                H = cand[keep]
                if len(prefix) > 2:  # (n, h_1, h_2, ..): past the charged floor
                    charge(1)
                if len(prefix) == s - 1:
                    if s > 2:
                        charge(len(H))
                    count += _pair_zeros(H, A, p, charge)
                else:
                    stack.append(_children(prefix, keep, H, cand, A, p))
                    break
            else:
                stack.pop()
    return count


def gowers_count_report(M: QuadForm, s: int, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """|Box_s(V(M) n (V+c))|, counted by gowers_set, against
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

