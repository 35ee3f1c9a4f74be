"""Quadratic forms M(n) = (nA)n + u.n + v over F_p: rank, the constructive
normalization to the standard shape c*n1^2 + n2^2 + ... + n_r^2 + c'*n_{r+1}
- lambda, perp spaces, isotropy tests, restriction to affine subspaces, and
the parallel-matrix certificate.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .ffcore import (  # TheoremViolation is re-exported from here
    FpMatrix,
    HypothesisFailed,
    HypothesisNotMet,
    MalformedInput,
    PrimeField,
    TheoremViolation,
    nullspace,
    rank as mat_rank,
)
from .fpoly import FLOAT_EXACT, FpMultiPoly, _quadratic_terms


class RankHypothesisFailed(HypothesisNotMet):  # re-exported by counting
    pass


class AffineSubspace:
    """V + c with V spanned by an independent basis and offset c."""

    def __init__(self, field: PrimeField, basis, offset=None):
        self.field = field
        self.basis = [[field.red(x) for x in b] for b in basis]
        if not self.basis and not offset:
            raise MalformedInput("an empty basis needs an offset to fix the ambient dimension")
        d = len(self.basis[0]) if self.basis else len(offset)
        self.dim_ambient = d
        for b in self.basis:
            if len(b) != d:
                raise MalformedInput("ragged basis")
        if offset is not None and len(offset) != d:
            raise MalformedInput(f"offset of length {len(offset)} for basis vectors of length {d}")
        if self.basis and mat_rank(FpMatrix(field, self.basis)) != len(self.basis):
            raise MalformedInput("basis vectors are dependent")
        self.offset = [field.red(x) for x in (offset or [0] * d)]

    def dim(self):
        return len(self.basis)

    def codim(self):
        return self.dim_ambient - len(self.basis)

    @classmethod
    def full_space(cls, field, d):
        return cls(field, [[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def to_json(self):
        return {"basis": [b[:] for b in self.basis], "offset": self.offset[:]}

    @classmethod
    def from_json(cls, field, obj):
        return cls(field, obj["basis"], obj.get("offset"))


def _broadcast_values(p, rows, u, v, k):
    """(x A) . x + u . x + v mod p on [p]^k, A and u cut to their first k
    rows and columns, as an int64 array of shape (p,)*k.

    Built by broadcasting, one axis at a time: the diagonal and linear
    column of axis i, then the cross table 2 a_ij x_i x_j of each earlier
    axis j, then one reduction mod p.  Every product is reduced before the
    next, so no intermediate exceeds about p^2."""
    x = np.arange(p, dtype=np.int64)
    grid = np.array(v, dtype=np.int64)
    for i in range(k):
        row = rows[i]
        grid = grid[..., None] + (row[i] * x % p * x + u[i] * x) % p
        for j in range(i):
            c = 2 * row[j] % p
            if c:
                table = (c * x % p)[:, None] * x % p
                grid += table.reshape((p,) + (1,) * (i - j - 1) + (p,))
        grid %= p
    return grid


def _entry_bound(x):
    """A bound on the absolute values of an int64 array, in one pass: its
    largest entry read as unsigned, so a negative entry reads as 2^63 or
    more and gets its side reduced."""
    return int(x.view(np.uint64).max()) if x.size else 0


def bilinear(x, a, y, p, lin=None, outer=False):
    """(x a + lin) . y row by row, or every row of x a + lin against every
    row of y with outer, as int64 values congruent to it mod p.

    x is (N, n), a is (n, m) and y is (N, m), or (N', m) with outer; a and
    lin (length m) hold residues, x and y any int64 entries.  Every value is
    below 2^62 in absolute value, so a caller adds a few residues and
    reduces once.  One bound on the entries (the largest read as unsigned,
    so at least 2^63 with a negative one) decides the arithmetic.  In the
    row form, where it shows every partial sum of x a + lin and of its
    product with y below FLOAT_EXACT (2^53), both products run in float64,
    exact there, and the values are the exact sums; on residues that is
    every p below 2^15 with n, m <= 14.  Otherwise they run in int64 and,
    as in fpoly._reduced_levels, a side is reduced mod p only where the
    bound says the next sum of products could reach 2^62: x before the
    product with a, then x a, then y.  Once a side is reduced its sum may
    still reach the limit, about n (p - 1)^2 for x a and m (p - 1)^2 for
    the product with y, and such a p raises MalformedInput."""
    limit = 2**62
    n, m = a.shape
    same = y is x
    x = np.asarray(x, dtype=np.int64)
    y = x if same else np.asarray(y, dtype=np.int64)
    xb = _entry_bound(x)
    yb = xb if same else _entry_bound(y)
    # the outer form stays in int64: its (N, N') result in float64 would
    # need a second array that size, and filling it costs more than the
    # faster product saves
    in_float = not outer and m * (n * xb * (p - 1) + p - 1) * max(yb, 1) < FLOAT_EXACT
    if in_float:
        # every partial sum is an integer below FLOAT_EXACT, so exact, and
        # no reduction below applies
        x, a = x.astype(np.float64), a.astype(np.float64)
        y = x if same else y.astype(np.float64)
    if n * xb * (p - 1) + p >= limit:
        x, xb = x % p, p - 1
    xab = n * xb * (p - 1) + p - 1
    if xab >= limit:
        raise MalformedInput(f"p = {p} is too large for exact int64 evaluation")
    xa = x @ a
    if lin is not None:
        xa += lin
    if m * xab * yb >= limit:
        xa, xab = xa % p, p - 1
    if m * xab * yb >= limit:
        y, yb = y % p, p - 1
    if m * xab * yb >= limit:
        raise MalformedInput(f"p = {p} is too large for exact int64 evaluation")
    out = xa @ y.T if outer else np.einsum("ij,ij->i", xa, y)
    return out.astype(np.int64) if in_float else out


class QuadForm:
    """M(n) = (nA).n + u.n + v with A symmetric over F_p."""

    def __init__(self, field: PrimeField, A, u=None, v=0):
        self.field = field
        self.p = field.p
        self.A = A if isinstance(A, FpMatrix) else FpMatrix(field, A)
        if not self.A.is_symmetric():
            raise MalformedInput("A must be symmetric")
        self.d = self.A.nrows
        self.u = [field.red(x) for x in ([0] * self.d if u is None else u)]
        if len(self.u) != self.d:
            raise MalformedInput("u has wrong length")
        self.v = field.red(v)

    @classmethod
    def dot_form(cls, field, d, radius=0):
        """n.n - radius, the sphere form."""
        return cls(field, FpMatrix.identity(field, d), None, field.neg(radius))

    def is_pure(self):
        return all(x == 0 for x in self.u)

    def is_homogeneous(self):
        return self.is_pure() and self.v == 0

    def evaluate(self, n):
        p = self.p
        na = self.A.vecmat(n)
        q = sum(na[i] * n[i] for i in range(self.d)) % p
        lin = sum(self.u[i] * n[i] for i in range(self.d)) % p
        return (q + lin + self.v) % p

    @cached_property
    def a64(self):
        """A as a read-only int64 array, built once per form."""
        a = np.array(self.A.rows, dtype=np.int64).reshape(self.d, self.d)
        a.flags.writeable = False
        return a

    def eval_array(self, points):
        u = np.array(self.u, dtype=np.int64)
        return (bilinear(points, self.a64, points, self.p, u) + self.v) % self.p

    def line_coefficients(self):
        """(a, b, c) with M(x', t) = a t^2 + b(x') t + c(x') on the lines
        along the last axis: a = A[d-1][d-1] as an int, b and c as int64
        arrays of shape (p,)*(d-1) over the prefixes x', in lexicographic
        order, built by _broadcast_values."""
        p, d, rows = self.p, self.d, self.A.rows
        last = rows[d - 1]
        zero = [[0] * d] * d
        b = _broadcast_values(p, zero, [2 * x % p for x in last], self.u[d - 1], d - 1)
        c = _broadcast_values(p, rows, self.u, self.v, d - 1)
        return last[d - 1], b, c

    def as_poly(self) -> FpMultiPoly:
        return FpMultiPoly(self.p, self.d, _quadratic_terms(self.A.rows, self.u, self.v))

    def shifted(self, h):
        """The quadratic form n |-> M(n + h)."""
        field = self.field
        p = self.p
        ha = self.A.vecmat(h)
        u2 = [(self.u[i] + 2 * ha[i]) % p for i in range(self.d)]
        v2 = (
            sum(ha[i] * h[i] for i in range(self.d))
            + sum(self.u[i] * h[i] for i in range(self.d))
            + self.v
        ) % p
        return QuadForm(field, self.A, u2, v2)

    def composed(self, B_rows, shift=None):
        """The quadratic form n |-> M(n B + shift); with no rows in B, the
        form in 0 variables whose constant is M(shift)."""
        field = self.field
        p = self.p
        B = B_rows if isinstance(B_rows, FpMatrix) else FpMatrix(field, B_rows)
        base = self if shift is None else self.shifted(shift)
        if not B.nrows:
            return QuadForm(field, [], [], base.v)
        A2 = B.matmul(base.A).matmul(B.transpose())
        u2 = [sum(base.u[k] * B.rows[i][k] for k in range(self.d)) % p for i in range(B.nrows)]
        return QuadForm(field, A2, u2, base.v)

    def to_json(self):
        return {"p": self.p, "A": self.A.to_lists(), "u": self.u[:], "v": self.v}

    @classmethod
    def from_json(cls, obj):
        field = PrimeField(obj["p"])
        return cls(field, obj["A"], obj.get("u"), obj.get("v", 0))

    def __repr__(self):
        return f"QuadForm(p={self.p}, A={self.A.rows}, u={self.u}, v={self.v})"


def qf_rank(M: QuadForm) -> int:
    return mat_rank(M.A)


class NormalizationCert:
    """Change of variables R, shift with
    M(nR + shift) = c n1^2 + n2^2 + ... + n_{d'}^2 + c' n_{d'+1} - lambda.

    When d' = d the c' term is absent (stored as 0).
    """

    def __init__(self, M, R, shift, c, cprime, lam, dprime):
        self.M = M
        self.R = R
        self.shift = shift
        self.c = c
        self.cprime = cprime
        self.lam = lam
        self.dprime = dprime

    def standard_poly(self) -> FpMultiPoly:
        d, p = self.M.d, self.M.p
        terms = {}
        for i in range(self.dprime):
            e = [0] * d
            e[i] = 2
            terms[tuple(e)] = self.c if i == 0 else 1
        if self.cprime and self.dprime < d:
            e = [0] * d
            e[self.dprime] = 1
            terms[tuple(e)] = self.cprime
        terms[(0,) * d] = (-self.lam) % p
        return FpMultiPoly(p, d, terms)

    def verify(self) -> bool:
        lhs = self.M.as_poly().compose_linear(self.R.rows, self.shift)
        return lhs == self.standard_poly()

    def to_json(self):
        return {
            "R": self.R.to_lists(),
            "shift": self.shift[:],
            "c": self.c,
            "cprime": self.cprime,
            "lambda": self.lam,
            "dprime": self.dprime,
        }


def _congruence_diagonalize(M: QuadForm):
    """S with S A S^T diagonal, nonzero entries first.  Returns (S, diag)."""
    field = M.field
    p = field.p
    d = M.d
    B = [row[:] for row in M.A.rows]
    S = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def row_op(i, j, f):
        # row_i += f*row_j and col_i += f*col_j (congruence), S row_i += f*row_j
        for k in range(d):
            B[i][k] = (B[i][k] + f * B[j][k]) % p
        for k in range(d):
            B[k][i] = (B[k][i] + f * B[k][j]) % p
        for k in range(d):
            S[i][k] = (S[i][k] + f * S[j][k]) % p

    def swap(i, j):
        B[i], B[j] = B[j], B[i]
        for k in range(d):
            B[k][i], B[k][j] = B[k][j], B[k][i]
        S[i], S[j] = S[j], S[i]

    for i in range(d):
        if B[i][i] == 0:
            pivot = next((j for j in range(i + 1, d) if B[j][j] != 0), None)
            if pivot is not None:
                swap(i, pivot)
            else:
                off = next((j for j in range(i + 1, d) if B[i][j] != 0), None)
                if off is None:
                    continue  # row/col i already zero
                row_op(i, off, 1)  # B[i][i] becomes 2*B[i][off] != 0
        inv = field.inv(B[i][i])
        for j in range(i + 1, d):
            if B[j][i] != 0:
                row_op(j, i, (-B[j][i] * inv) % p)
    # move nonzero diagonal entries to the front
    target = 0
    for i in range(d):
        if B[i][i] != 0:
            if i != target:
                swap(i, target)
            target += 1
    diag = [B[i][i] for i in range(d)]
    return FpMatrix(field, S), diag


def normalize(M: QuadForm) -> NormalizationCert:
    """Constructive reduction to the standard shape, with a verified
    symbolic certificate: diagonalize by symmetric elimination, complete
    squares, rescale, merge non-residue pairs via a^2 + 1 = c, then collapse
    the degenerate linear tail to a single coordinate.
    """
    field = M.field
    p = field.p
    d = M.d

    R = FpMatrix.identity(field, d)
    shift = [0] * d

    def current():
        return M.composed(R, shift)

    def apply(S_rows, w=None):
        # compose the substitution n -> nS + w written in current coordinates:
        # total map becomes n -> n(SR) + (wR + shift)
        nonlocal R, shift
        S = S_rows if isinstance(S_rows, FpMatrix) else FpMatrix(field, S_rows)
        if w is not None:
            shift = [
                (sum(w[k] * R.rows[k][j] for k in range(d)) + shift[j]) % p
                for j in range(d)
            ]
        R = S.matmul(R)

    S0, diag = _congruence_diagonalize(M)
    apply(S0)
    dprime = sum(1 for a in diag if a != 0)

    cur = current()
    # complete squares on the regular block
    if dprime:
        w = [0] * d
        for i in range(dprime):
            if cur.u[i]:
                w[i] = field.neg(field.div(cur.u[i], 2 * diag[i] % p))
        if any(w):
            apply(FpMatrix.identity(field, d), w)
            cur = current()

    # rescale diagonal entries to 1 or the smallest non-residue
    c0 = field.smallest_nonresidue()
    scale = [1] * d
    residue_slots = []
    for i in range(dprime):
        a = cur.A.rows[i][i]
        if field.legendre(a) == 1:
            scale[i] = field.inv(field.sqrt(a))
        else:
            scale[i] = field.inv(field.sqrt(field.div(a, c0)))
            residue_slots.append(i)
    if any(s != 1 for s in scale):
        apply([[scale[i] if i == j else 0 for j in range(d)] for i in range(d)])
        cur = current()

    # merge non-residue pairs: c0 x^2 + c0 y^2 = (ax + y)^2 + (x - ay)^2
    while len(residue_slots) >= 2:
        i, j = residue_slots[0], residue_slots[1]
        a = field.sqrt((c0 - 1) % p)  # minimality of c0 makes c0 - 1 a square
        inv_c0 = field.inv(c0)
        S = [[1 if r == s else 0 for s in range(d)] for r in range(d)]
        S[i][i] = a * inv_c0 % p
        S[j][i] = inv_c0
        S[i][j] = inv_c0
        S[j][j] = field.neg(a * inv_c0 % p)
        apply(S)
        cur = current()
        residue_slots = residue_slots[2:]

    # move a leftover non-residue coefficient to slot 1
    if residue_slots and residue_slots[0] != 0:
        i = residue_slots[0]
        S = [[1 if r == s else 0 for s in range(d)] for r in range(d)]
        S[0][0] = S[i][i] = 0
        S[0][i] = S[i][0] = 1
        apply(S)
        cur = current()
    c = cur.A.rows[0][0] if dprime else 1

    # degenerate linear tail -> c' * n_{d'+1}
    cprime = 0
    tail = [i for i in range(dprime, d) if cur.u[i] != 0]
    if tail:
        i0 = tail[0]
        if i0 != dprime:
            S = [[1 if r == s else 0 for s in range(d)] for r in range(d)]
            S[dprime][dprime] = S[i0][i0] = 0
            S[dprime][i0] = S[i0][dprime] = 1
            apply(S)
            cur = current()
        ucoef = cur.u[dprime:]
        inv0 = field.inv(ucoef[0])
        S = [[1 if r == s else 0 for s in range(d)] for r in range(d)]
        S[dprime][dprime] = inv0
        for k in range(1, len(ucoef)):
            if ucoef[k]:
                S[dprime + k][dprime] = field.neg(ucoef[k] * inv0 % p)
        apply(S)
        cur = current()
        cprime = 1

    lam = field.neg(cur.v)
    cert = NormalizationCert(M, R, shift, c, cprime, lam, dprime)
    if not cert.verify():
        raise TheoremViolation("normalization certificate failed to verify")
    return cert


def perp(M: QuadForm, direction_basis):
    """V^{perp_M} = {n : (mA).n = 0 for all m in V}, as a basis list."""
    field = M.field
    if not direction_basis:
        return AffineSubspace.full_space(field, M.d).basis
    return nullspace(FpMatrix(field, [M.A.vecmat(m) for m in direction_basis]))


def gram_matrix(M: QuadForm, vectors):
    """((h_i A).h_j): the matrix of M pulled back through the vectors."""
    if not vectors:
        return FpMatrix(M.field, [])
    return M.composed(vectors).A

def isotropic_test(M: QuadForm, vectors) -> bool:
    """True iff the Gram matrix ((h_i A).h_j) is singular."""
    if not vectors:
        return False
    g = gram_matrix(M, vectors)
    return mat_rank(g) < len(vectors)


def restricted_rank(M: QuadForm, S: AffineSubspace) -> int:
    """Rank of M restricted to the affine subspace S (pull back through any
    parametrization; independent of the choice)."""
    if not S.basis:
        return 0
    return mat_rank(M.composed(S.basis).A)


def find_nonisotropic(M: QuadForm, k: int):
    """A k-dimensional M-non-isotropic subspace, as a list of basis vectors."""
    r = qf_rank(M)
    if k < 0 or k > r:
        raise RankHypothesisFailed(f"need 0 <= k <= rank(M) = {r}")
    if k == 0:
        return []
    cert = normalize(M)
    basis = [cert.R.rows[i][:] for i in range(k)]
    if isotropic_test(M, basis):
        raise TheoremViolation("normalized basis unexpectedly isotropic")
    return basis


def parallel_certificate(A: FpMatrix, B: FpMatrix, v, W, field: PrimeField):
    """Parallel-matrix certificate: if for all w in W and all n with
    (nA).w = 0 one has (nB + v).w = 0, return the scalar c with B = cA
    (and v = 0).  Otherwise raise HypothesisFailed with an (n, w) witness.

    The per-w condition is equivalent to v.w = 0 and B w^T parallel to
    A w^T, which is checked exactly; witnesses are reconstructed by a
    linear solve, so no sampling is involved.
    """
    if mat_rank(A) < 3:
        raise RankHypothesisFailed("parallel_certificate needs rank(A) >= 3")
    p = field.p
    d = A.nrows
    c_value = None
    for w in W:
        aw = A.matvec(w)
        bw = B.matvec(w)
        vw = sum(v[i] * w[i] for i in range(d)) % p
        ok = True
        if all(x == 0 for x in aw):
            ok = all(x == 0 for x in bw) and vw == 0
        else:
            stacked = FpMatrix(field, [aw, bw])
            ok = mat_rank(stacked) <= 1 and vw == 0
        if not ok:
            witness = _parallel_witness(field, aw, bw, vw, d)
            raise HypothesisFailed((witness, tuple(w)))
        if c_value is None and any(x != 0 for x in aw):
            j = next(i for i in range(d) if aw[i] != 0)
            c_value = bw[j] * field.inv(aw[j]) % p
    if c_value is None:
        raise RankHypothesisFailed("W never meets the support of A")
    scaled = FpMatrix(field, [[c_value * x % p for x in row] for row in A.rows])
    if scaled.rows != B.rows or any(x != 0 for x in v):
        raise TheoremViolation("hypothesis verified but B != cA or v != 0")
    return c_value


def _parallel_witness(field, aw, bw, vw, d):
    # find n with n.aw = 0 but n.bw + vw != 0
    if all(x == 0 for x in aw):
        if vw != 0:
            return tuple([0] * d)
        j = next(i for i in range(d) if bw[i] != 0)
        n = [0] * d
        n[j] = 1
        return tuple(n)
    basis = nullspace(FpMatrix(field, [aw]))
    p = field.p
    for vec in [[0] * d] + basis:
        if (sum(vec[i] * bw[i] for i in range(d)) + vw) % p != 0:
            return tuple(vec)
    for b1 in basis:
        for b2 in basis:
            cand = [(b1[i] + b2[i]) % p for i in range(d)]
            if (sum(cand[i] * bw[i] for i in range(d)) + vw) % p != 0:
                return tuple(cand)
    raise TheoremViolation("witness reconstruction failed")
