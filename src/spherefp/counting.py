"""Exact enumeration of spherical sets and the counting / character-sum
estimates turned into checkable bounds.

Main terms carry their proven exponents; the implicit constants
are tested at an explicit 4.  Enumeration is lexicographic over canonical
representatives so point lists are reproducible byte for byte.  Every row
of V(M) comes from one line solver (_line_solver) over a range of the
lines along the last axis: the whole set is one range (enumerate_zeros),
the stream ranges of whole leads in chunks of bounded size (zero_chunks),
so a scan holds one chunk at a time, and the first point its own short
ranges (first_zero).  Complex sums are assembled from exact residue
counts and a length-p table of roots of unity, summed with math.fsum, so
the only float error is the final compensated accumulation.  Counts that
need no point list, |V(M) n (V+c)|, |V(M)^{h_1..h_r}|, |Box_s| for s <= 2
and exp_sum's phase counts, are closed forms from one congruence
diagonalization and Gauss-sum zero counts, and take no budget: a budget
meters only an enumeration that runs.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .ffcore import (
    BudgetExceeded, FpMatrix, HypothesisNotMet, MalformedInput, TheoremViolation, rank as mat_rank, rref,
    solve_linear,
)
from .quadform import (
    AffineSubspace, QuadForm, RankHypothesisFailed, _congruence_diagonalize, bilinear, qf_rank,
)
# after quadform, which loads fpoly: loading fpoly here first changes the
# modules' load order, and that order alone moved the lifts and cli
# benchmark times by about 10% on a 2-vCPU VM
from .fpoly import EVAL_CHUNK_CELLS

DEFAULT_BUDGET = 10**8
O_CONSTANT = 4  # explicit stand-in for every O(.) constant at desk scale


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
    return np.indices((p,) * k, dtype=np.int64).reshape(k, -1).T.copy()


def _check_count(name, value, least):
    """value counts (h_i, blocks, a norm): an int >= least, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise MalformedInput(f"{name} must be an integer >= {least}, got {value!r}")


def _check_delta(delta, name="delta"):
    """delta bounds a mean or a share of points: it lies in (0, 1]."""
    if not 0 < delta <= 1:  # also rejects nan
        raise MalformedInput(f"{name} must lie in (0, 1], got {delta}")


def _check_subspace(M: QuadForm, S: AffineSubspace | None):
    """S against M: its ambient dimension, then its prime."""
    if S is not None:
        if S.dim_ambient != M.d:
            raise MalformedInput(f"subspace of F_p^{S.dim_ambient} for a form in {M.d} variables")
        if S.field.p != M.p:
            raise MalformedInput(f"subspace over F_{S.field.p} for a form over F_{M.p}")


def _check_slice(M: QuadForm, S: AffineSubspace | None, budget):
    """The checks before any enumeration of V(M) n (V + c): the subspace
    against M, then p^d (p^k on V + c) against the budget."""
    _check_subspace(M, S)
    size = M.p ** (M.d if S is None else S.dim())
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


def _line_roots(p, a, b, c):
    """The roots of a t^2 + b t + c = 0 over F_p on each line, b and c flat
    int64 arrays: (first, step, count) with the roots first, first + step,
    .., ascending.  With a != 0 the roots are (-b +- r) / 2a where
    r^2 = b^2 - 4ac, read from a table of square roots built from
    r = 0..(p-1)/2; with a = 0 the root of b t + c = 0 is -c / b, and a line
    with b = c = 0 holds all p points."""
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
        return np.minimum(t1, t2), np.abs(t1 - t2), nroots[disc]
    first = (-c % p) * _inverses(p)[b] % p
    return first, np.ones_like(c), np.where(b != 0, 1, np.where(c == 0, p, 0))


def _fill_digits(out, index, p):
    """out, an (N, k) int64 array, with row i set to the base-p digits of
    index[i], most significant first: the point of [p]^k at that index in
    lexicographic order.  Floor division by the scalar p, with the digit
    as the remainder left, takes about half the time of np.divmod."""
    for axis in range(out.shape[1] - 1, -1, -1):
        rest = index // p
        out[:, axis] = index - rest * p
        index = rest
    return out


def _line_solver(M: QuadForm, t):
    """rows(lo, hi): the rows of V(M) on the lines lo..hi-1, int64, in
    lexicographic order.

    Line i runs along the last axis through the prefix x' in F_p^(d-1) of
    index i in lexicographic order; on it M is a t^2 + b(x') t + c(x'),
    solved by _line_roots, roots ascending.  A prefix is a lead L, its
    first k = d - 1 - t axes, and a tail T, the other t, so a lead holds
    p^t consecutive lines.  b and c over the tails are
    QuadForm.line_coefficients of M on the tail and last axes, computed
    once; a lead L adds 2 L A_{lead,last} to b and
    M_L(L) + (2 L A_{lead,tail}) . T to c, M_L the form on the lead axes
    without v, from the digits of the leads the range meets alone, so
    nothing is built over all p^k leads; a range inside the first lead
    reads b and c off the tails' tables.  The form in 0 variables is the
    constant v: its one point () is a zero when v = 0."""
    p, d = M.p, M.d
    if d == 0:
        return lambda lo, hi: np.zeros((int(M.v == 0), 0), dtype=np.int64)
    k = d - 1 - t
    tail = QuadForm(M.field, [row[k:] for row in M.A.rows[k:]], M.u[k:], M.v) if k else M
    a, b_tail, c_tail = tail.line_coefficients()
    b_tail, c_tail = b_tail.reshape(-1), c_tail.reshape(-1)
    size = p**t  # the lines of one lead

    def rows(lo, hi):
        if hi <= size:  # inside the first lead, whose part is 0
            b, c = b_tail[lo:hi], c_tail[lo:hi]
        else:
            start, stop = lo // size, -(-hi // size)  # the leads the range meets
            L = _fill_digits(np.empty((stop - start, k), dtype=np.int64), np.arange(start, stop), p)
            shift = L @ (2 * M.a64[:k, k:] % p) % p  # 2 L A_{lead,tail}, then 2 L A_{lead,last}
            c_lead = bilinear(L, M.a64[:k, :k], L, p, np.array(M.u[:k], dtype=np.int64)) % p  # M_L(L)
            cut = slice(lo - start * size, hi - start * size)
            b = ((shift[:, t:] + b_tail) % p).reshape(-1)[cut]
            c = ((shift[:, :t] @ all_points(p, t).T + c_lead[:, None] + c_tail) % p).reshape(-1)[cut]
        first, step, count = _line_roots(p, a, b, c)
        line = np.repeat(np.arange(len(count)), count)
        # the index of each row among the roots of its line
        j = np.arange(len(line)) - (np.cumsum(count) - count)[line]
        pts = np.empty((len(line), d), dtype=np.int64)
        pts[:, d - 1] = first[line] + step[line] * j
        _fill_digits(pts[:, : d - 1], line + lo, p)
        return pts

    return rows


def _zero_blocks(M: QuadForm):
    """V(M) as int64 rows in lexicographic order, in nonempty chunks of at
    most EVAL_CHUNK_CELLS cells, each range of lines solved when its first
    chunk is asked for.

    The tail is the most axes t < d whose p^t lines, one row of d cells
    each, fill at most half a chunk.  The ranges are whole leads
    (_line_solver): one lead first, so a scan that stops there solves p^t
    lines, then each range doubles up to EVAL_CHUNK_CELLS / d lines, so it
    holds at least half that many.  A range's rows fill about one chunk (at
    most two where a != 0, p where every line lies in V(M)); a range with
    more rows than a chunk holds is cut, so no chunk is larger."""
    p, d = M.p, M.d
    most = max(1, EVAL_CHUNK_CELLS // max(d, 1))
    t = max(d - 1, 0)
    while t > 0 and 2 * p**t * d > EVAL_CHUNK_CELLS:
        t -= 1
    rows, size, lines = _line_solver(M, t), p**t, p ** max(d - 1, 0)
    lo, n = 0, size
    while lo < lines:
        pts = rows(lo, min(lo + n, lines))
        yield from (pts[start : start + most] for start in range(0, len(pts), most))
        lo, n = lo + n, min(2 * n, max(size, most // size * size))


def first_zero(M: QuadForm, budget=DEFAULT_BUDGET):
    """The first row of V(M) as a tuple of Python ints, or None when V(M)
    is empty, solving only the ranges of lines up to the one that holds it:
    the line [0, 1), then for j = 0, 1, .. and q = 1..p-1 the lines
    [q p^j, (q + 1) p^j) of the prefixes (0, .., 0, q, *), at most
    EVAL_CHUNK_CELLS / d lines at a time.  The solver has no tail, so the
    first line costs one form in one variable.  The budget meters the p
    points of every line solved, checked before each range; the form in 0
    variables has one point."""
    p, d = M.p, M.d
    rows, most = _line_solver(M, 0), max(1, EVAL_CHUNK_CELLS // max(d, 1))
    lo = 0
    for hi in [1] + [(q + 1) * p**j for j in range(d - 1) for q in range(1, p)]:
        points = hi * p if d else 1  # on the lines solved so far
        if points > budget:
            raise BudgetExceeded(f"enumeration of size {points} exceeds budget {budget}")
        for start in range(lo, hi, most):
            pts = rows(start, min(start + most, hi))
            if len(pts):
                return tuple(pts[0].tolist())
        lo = hi
    return None


def zero_chunks(M: QuadForm, budget=DEFAULT_BUDGET):
    """V(M) as int64 rows in lexicographic order, in nonempty chunks of at
    most EVAL_CHUNK_CELLS cells (_zero_blocks), so a scan holds one chunk
    at a time and one that stops early solves only the lines up to its
    chunk.  p^d is checked against the budget when zero_chunks is called,
    before the first chunk is asked for (_check_slice)."""
    _check_slice(M, None, budget)
    return _zero_blocks(M)


def enumerate_zeros(M: QuadForm, S: AffineSubspace | None = None, budget=DEFAULT_BUDGET):
    """V(M), or V(M) n (V + c), as one int64 array of rows in
    lexicographic order, after the subspace and budget checks
    (_check_slice): zero_chunks' rows, all p^(d-1) lines solved as one
    range with no lead split (_line_solver), since joining the chunks
    costs a caller that holds the whole set more than one range does.

    On V + c the basis of V is put in reduced echelon form B (k rows,
    pivot columns j_i) and the offset c reduced to 0 on the pivots; M is
    pulled back, t |-> M(t B + c) (QuadForm.composed), that form in k
    variables is solved like V(M) itself, and each row t is mapped to
    (t B + c) mod p.  Coordinate j_i of t B + c is t_i, and every
    coordinate before it depends on t_0..t_(i-1) alone, so the rows stay in
    lexicographic order and nothing is sorted.  A point subspace is the
    form in 0 variables, M(c)."""
    _check_slice(M, S, budget)
    p, N = M.p, M
    if S is not None:
        basis, _, pivots = rref(FpMatrix(S.field, S.basis))
        offset = list(S.offset)
        for row, j in zip(basis.rows, pivots):
            offset = [(x - offset[j] * y) % p for x, y in zip(offset, row)]
        N = M.composed(basis.rows, offset)
    pts = _line_solver(N, N.d - 1)(0, p ** max(N.d - 1, 0))
    if S is None:
        return pts
    return (pts @ np.array(basis.rows, dtype=np.int64).reshape(-1, M.d) + np.array(offset, dtype=np.int64)) % p


def _completed_square(field, diag, u, v):
    """(r, eta, kappa) of sum_i diag_i y_i^2 + u.y + v, diag nonzero first:
    the rank, the Legendre symbol of diag_1..diag_r, and the constant left
    once the squares are completed, v - sum_i u_i^2 / 4 diag_i or None."""
    r = sum(1 for x in diag if x)
    kappa = None if any(u[r:]) else (v - sum(u[i] * u[i] * field.inv(4 * diag[i]) for i in range(r))) % field.p
    return r, field.legendre(math.prod(diag[:r])), kappa


def _zero_set_class(M: QuadForm, S: AffineSubspace | None = None):
    """(k, r, eta, kappa): what the closed-form counts read of M on V + c.

    M is pulled back to the k parameters of V + c (all of F_p^d when S is
    None) and diagonalized by congruence, x = yT with T A T^T = diag(D), so
    M = sum_i D_i y_i^2 + u'.y + v, u' = T u (_completed_square; kappa is
    None when u is not in Im A).  A point subspace is the form in 0
    variables, with kappa = M(c)."""
    if S is not None:
        M = M.composed(S.basis, S.offset)
    T, diag = _congruence_diagonalize(M)
    return (M.d, *_completed_square(M.field, diag, T.matvec(M.u), M.v))


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


def zero_count_check(M: QuadForm, S: AffineSubspace | None = None):
    """|V(M) n (V+c)| against p^{d-r-1} with error exponent (s-2)/2,
    s = rank of the restricted form (needs s >= 3).  The subspace is checked
    against M first; one congruence diagonalization (_zero_set_class) then
    gives s for the rank check and the count in closed form (_box_size at
    s = 0), so nothing is enumerated and no budget is taken."""
    _check_subspace(M, S)
    form = k, s, _, _ = _zero_set_class(M, S)
    if s < 3:
        raise RankHypothesisFailed(f"restricted rank {s} < 3")
    exact = _box_size(M.field, 0, form)
    main = Fraction(M.p) ** (k - 1)  # d - r - 1, r the codimension of V + c
    bound = float(M.p) ** (k - 1 - (s - 2) / 2)
    return CountReport(exact, main, bound)


def _roots_of_unity(p: int):
    return [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]


def root_sum(counts, p):
    """sum_t counts[t] e(t/p), each part summed with math.fsum."""
    table = _roots_of_unity(p)
    re = math.fsum(int(c) * table[t].real for t, c in enumerate(counts))
    im = math.fsum(int(c) * table[t].imag for t, c in enumerate(counts))
    return complex(re, im)


def exp_sum(M: QuadForm, xi):
    """E_{n in V(M)} e(xi . tau(n) / p), exact summands, |error| < 1e-10.

    J[t] = |V(M) n {xi . n = t}| is a closed form and takes no budget: with
    xi . c = 1 and B a basis of xi^perp, M(t c + y B) is diagonalized in y
    once, and each t completes its own squares for _box_size.  At
    xi = 0 mod p, J = [|V(M)|, 0, ..]."""
    if len(xi) != M.d:
        raise MalformedInput(f"xi has length {len(xi)}, the form has d = {M.d}")
    field, p = M.field, M.p
    xi = [x % p for x in xi]
    if any(xi):
        c, basis = solve_linear(FpMatrix(field, [xi]), [1])
        N = M.composed([c] + basis)  # N(t, y) = M(t c + y B)
        a, u = N.A.rows, N.u
        T, diag = _congruence_diagonalize(QuadForm(field, [row[1:] for row in a[1:]]))
        lin, slope = T.matvec(u[1:]), T.matvec([2 * x for x in a[0][1:]])
        counts = []
        for t in range(p):
            y_lin = [(x + t * y) % p for x, y in zip(lin, slope)]
            form = _completed_square(field, diag, y_lin, (a[0][0] * t * t + u[0] * t + N.v) % p)
            counts.append(_box_size(field, 0, (M.d - 1, *form)))
    else:
        counts = [_box_size(field, 0, _zero_set_class(M))] + [0] * (p - 1)
    if not (total := sum(counts)):
        raise RankHypothesisFailed("V(M) is empty")
    phases = [t for t, count in enumerate(counts) if count]
    if len(phases) == 1:
        return _roots_of_unity(p)[phases[0]]
    z = root_sum(counts, p)
    return complex(z.real / total, z.imag / total)


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


def quadratic_root_count(M: QuadForm):
    """#{n : M(n) is a square} against p^d / 2: the sum of |V(M - t)| over
    t = 0 and the nonzero squares, each in closed form (_box_size at s = 0),
    so nothing is enumerated and no budget is taken.  M - t differs from M
    only in v, so its kappa is kappa - t.  The rank r is the one
    _zero_set_class reads."""
    k, r, eta, kappa = _zero_set_class(M)
    if r < 2:
        raise RankHypothesisFailed(f"rank {r} < 2")
    p = M.p
    exact = sum(
        _box_size(M.field, 0, (k, r, eta, None if kappa is None else (kappa - t) % p))
        for t in {x * x % p for x in range(p)}
    )
    main = Fraction(p**M.d, 2)
    expo = -(r - 2) / 2 if r >= 3 else -0.5
    bound = float(main) * float(p) ** expo
    return CountReport(exact, main, bound)


def vmh_count_report(M: QuadForm, shifts):
    """|V(M)^{h_1..h_r}|, V(M) n V(M(. + h_1)) n .., against p^{d-r-1}
    with error p^{d-r-1.5}, after the shift, rank and d - 2r checks.
    M(n + h) - M(n) = 2 nAh + M(h) - v is linear in n, so the set is the
    slice V(M) n L_h, L_h = {n : 2 nAh_i = v - M(h_i) for every i}, of
    codimension r as M is non-degenerate and the h_i independent: one
    solve_linear and a closed form (_box_size at s = 0), no budget."""
    field, d, r = M.field, M.d, len(shifts)
    if any(len(h) != d for h in shifts):
        raise MalformedInput(f"every shift must have length d = {d}")
    if r and mat_rank(FpMatrix(field, [list(h) for h in shifts])) < r:
        raise DependentShifts("shift vectors are linearly dependent")
    if qf_rank(M) < d:
        raise RankHypothesisFailed("M must be non-degenerate")
    if d - 2 * r < 3:
        raise RankHypothesisFailed(f"need d - 2r >= 3, got {d - 2 * r}")
    L = None
    if r:
        rows = [[2 * x for x in M.A.vecmat(h)] for h in shifts]
        offset, basis = solve_linear(FpMatrix(field, rows), [M.v - M.evaluate(h) for h in shifts])
        L = AffineSubspace(field, basis, offset)
    exact = _box_size(field, 0, _zero_set_class(M, L))
    main = Fraction(M.p) ** (d - r - 1)
    bound = float(M.p) ** (d - r - 1.5)
    return CountReport(exact, main, bound)


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
    scans read it; _metered_gowers_set counts its tuples, walking unsorted.

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

    For s <= 2 it is a closed form: s and the subspace are checked, nothing
    is enumerated and no budget is taken.  N = |V(M) n (V+c)| and |Box_2|
    come from one _zero_set_class (_box_size), and |Box_1| = N^2, since n
    and n + h_1 range over the set independently.  For s >= 3 it walks,
    under the walk's budget rule (_metered_gowers_set).  On F_p^d the tuples
    as rows n | h_1 | .. | h_s are
    enumerate_mset(gowers_family(M, s), M, s + 1)."""
    _check_count("s", s, 0)
    if s <= 2:
        _check_subspace(M, S)
        form = _zero_set_class(M, S)
        return _box_size(M.field, 2, form) if s == 2 else _box_size(M.field, 0, form) ** (s + 1)
    return _metered_gowers_set(M, s, S, budget)


def _metered_gowers_set(M: QuadForm, s: int, S: AffineSubspace | None, budget):
    """|Box_s(V(M) n (V+c))| under gowers_blocks' budget rule, one unit per
    tuple (n, h_1..h_t), t <= s, refused exactly when that walk would be,
    with its message: the fit check before a scan of Box_s.  After
    _check_slice, |Box_0| + .. + |Box_min(s, 2)| (gowers_set) is charged;
    for s >= 3 _walk then reaches the nodes (n, h_1..h_{s-2}) over the
    unsorted candidates (b - n) mod p, and a node with candidate rows H has
    |H| children and the pairs of H with (h A) . h' = 0 (_pair_zeros)."""
    _check_slice(M, S, budget)
    counts = [gowers_set(M, t, S) for t in range(min(s, 2) + 1)]
    _box_meter(s, budget)(sum(counts))
    if s <= 2:
        return counts[s]
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
    """|Box_s(V(M) n (V+c))|, counted by gowers_set (in closed form and
    free of budget for s <= 2, by the metered walk past it), against
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

