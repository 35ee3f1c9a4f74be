"""(M,k)-integral quadratic functions, M-families and their classification,
standard M-representations, projections, the Fubini check, and the
irreducibility probe.

A function F(n_1..n_k) = sum_{i<=j} b_ij (n_i A) . n_j + sum_i v_i . n_i + u
is stored by its upper-triangular b map, its block linear parts v_i, and
its constant u, all relative to the matrix A of an ambient quadratic form.
MQuadFn.beta is its symmetric k x k block matrix, the one source of the
quadratic part for as_poly (beta (x) A), transformed and the nice search.

A family is reduced once, by _echelon: one reduced row echelon form of its
coefficient vectors v_M(F).  The family is consistent (rank v_M equals
rank v'_M) when no pivot falls on the constant column.  The reduced rows
are the standard representation, and enumerate_mset, the projections and
the codimension read them directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .counting import BudgetExceeded, CountReport, DEFAULT_BUDGET, _check_count, _check_delta, all_points
from .ffcore import (
    FpMatrix,
    HypothesisNotMet,
    Infeasible,
    MalformedInput,
    PrimeField,
    particular_solver,
    rref,
    solve_linear,
)
from .fpoly import FpMultiPoly, _quadratic_terms, _random_exponent
from .fpoly import _binom_basis_indices as _monomials_up_to  # cached, sorted tuple
from .quadform import QuadForm, bilinear

ENUM_CHUNK_ROWS = 1 << 18  # mask cells (prefix rows x column-cut block points) per chunk
MEMBERSHIP_CACHE_SIZE = 32  # reduced ideal-membership systems kept, one per (family, k, deg P)


class NotConsistent(HypothesisNotMet):
    pass


class MQuadFn:
    def __init__(self, M: QuadForm, k: int, b=None, v=None, u=0):
        _check_count("k", k, 0)  # the prefix of a block-1 function is a constant of 0 blocks
        self.M = M
        self.k = k
        self.d = M.d
        self.p = M.p
        self.b = {}
        for (i, j), c in (b or {}).items():
            if not (1 <= i <= j <= k):
                raise MalformedInput("b indices must satisfy 1 <= i <= j <= k")
            c = c % self.p
            if c:
                self.b[(i, j)] = c
        v = [[0] * self.d] * k if v is None else v
        if len(v) != k or any(len(row) != self.d for row in v):
            raise MalformedInput("v must hold k vectors of length d")
        self.v = [[x % self.p for x in row] for row in v]
        self.u = u % self.p

    def evaluate(self, blocks):
        p = self.p
        total = self.u
        cache = {i: self.M.A.vecmat(list(blocks[i])) for i in range(self.k)}
        for (i, j), c in self.b.items():
            na = cache[i - 1]
            total += c * sum(na[t] * blocks[j - 1][t] for t in range(self.d))
        for i in range(self.k):
            total += sum(self.v[i][t] * blocks[i][t] for t in range(self.d))
        return total % p

    @cached_property
    def _kernel(self):
        """(rows, cols, a, lin) with F = (x a + lin) . y + u for x =
        pts[:, rows] and y = pts[:, cols]: block (i, j) of a is b_ij A mod p.
        rows spans the blocks i of the b_ij, cols the blocks j of the b_ij
        and of the nonzero v_j, so no block outside them is multiplied."""
        d, p = self.d, self.p
        top = [i for i, _ in self.b]
        side = [j for _, j in self.b] + [j + 1 for j in range(self.k) if any(self.v[j])]
        r0, r1 = (min(top), max(top)) if top else (1, 0)
        c0, c1 = (min(side), max(side)) if side else (1, 0)
        a = np.zeros(((r1 - r0 + 1) * d, (c1 - c0 + 1) * d), dtype=np.int64)
        for (i, j), c in self.b.items():
            a[(i - r0) * d : (i - r0 + 1) * d, (j - c0) * d : (j - c0 + 1) * d] = c * self.M.a64 % p
        lin = np.array(sum(self.v[c0 - 1 : c1], []), dtype=np.int64)
        return slice((r0 - 1) * d, r1 * d), slice((c0 - 1) * d, c1 * d), a, lin

    def eval_array(self, pts):
        """pts: (N, k*d) array of stacked blocks."""
        rows, cols, a, lin = self._kernel
        x = pts[:, rows]
        y = x if rows == cols else pts[:, cols]
        return (bilinear(x, a, y, self.p, lin) + self.u) % self.p

    def as_poly(self) -> FpMultiPoly:
        """F as a polynomial in the k*d stacked coordinates: its quadratic
        matrix is beta (x) A."""
        a = self.M.A.rows
        kron = [[bij * x for bij in bi for x in row] for bi in self.beta() for row in a]
        return FpMultiPoly(self.p, self.k * self.d, _quadratic_terms(kron, sum(self.v, []), self.u))

    def beta(self):
        """The symmetric k x k block matrix of the quadratic part: b_ii on
        the diagonal and b_ij / 2 off it, so the quadratic part is
        sum_{i,j} beta_ij (n_i A) . n_j."""
        k, p = self.k, self.p
        half = pow(2, -1, p)
        beta = [[0] * k for _ in range(k)]
        for (i, j), c in self.b.items():
            beta[i - 1][j - 1] = beta[j - 1][i - 1] = c if i == j else c * half % p
        return beta

    def max_block(self):
        """Largest block index the function depends on (0 for constants)."""
        top = 0
        for (i, j) in self.b:
            top = max(top, j)
        for i in range(self.k):
            if any(self.v[i]):
                top = max(top, i + 1)
        return top

    def is_pure(self):
        return all(not any(vi) for vi in self.v)

    def is_nice(self):
        """Single-pivot shape: sum_{i<=k'} b_i (n_{k'} A) . n_i + u."""
        if not self.is_pure():
            return False
        if not self.b:
            return True
        pivots = {j for (_, j) in self.b}
        return len(pivots) == 1

    def coeff_vectors(self):
        """(v_M(F), v'_M(F)), blocks ordered from the last down:
        (b_kk, b_k(k-1), .., b_k1, v_k, ..., b_11, v_1, u)."""
        vec = []
        for i in range(self.k, 0, -1):
            for j in range(i, 0, -1):
                key = (min(i, j), max(i, j))
                vec.append(self.b.get(key, 0))
            vec.extend(self.v[i - 1])
        vprime = vec[:]
        vec.append(self.u)
        return vec, vprime

    @classmethod
    def from_coeff_vector(cls, M, k, vec):
        d = M.d
        b = {}
        v = []
        pos = 0
        for i in range(k, 0, -1):
            for j in range(i, 0, -1):
                c = vec[pos]
                pos += 1
                if c:
                    b[(min(i, j), max(i, j))] = c
            v.append(vec[pos : pos + d])
            pos += d
        u = vec[pos]
        v.reverse()
        return cls(M, k, b, v, u)

    def transformed(self, T, shift=None):
        """F(L(n) + shift) for the block-linear map L(n)_i = sum_t n_t T[t][i]."""
        p, k, d = self.p, self.k, self.d
        beta = self.beta()
        shift = shift or [[0] * d for _ in range(k)]
        # beta' = T beta T^T
        tb = [[sum(T[s][i] * beta[i][j] for i in range(k)) % p for j in range(k)] for s in range(k)]
        beta2 = [[sum(tb[s][j] * T[t][j] for j in range(k)) % p for t in range(k)] for s in range(k)]
        b2 = {}
        for i in range(k):
            for j in range(i, k):
                c = beta2[i][j] if i == j else 2 * beta2[i][j] % p
                if c:
                    b2[(i + 1, j + 1)] = c
        shift_a = [self.M.A.vecmat(shift[j]) for j in range(k)]
        v2 = []
        for s in range(k):
            row = [0] * d
            for i in range(k):
                ti = T[s][i]
                if ti == 0:
                    continue
                for t in range(d):
                    row[t] += ti * self.v[i][t]
                for j in range(k):
                    bij = beta[i][j]
                    if bij:
                        for t in range(d):
                            row[t] += 2 * ti * bij * shift_a[j][t]
            v2.append([x % p for x in row])
        u2 = self.u
        for i in range(k):
            for j in range(k):
                if beta[i][j]:
                    u2 += beta[i][j] * sum(shift_a[i][t] * shift[j][t] for t in range(d))
            u2 += sum(self.v[i][t] * shift[i][t] for t in range(d))
        return MQuadFn(self.M, k, b2, v2, u2 % p)

    def to_json(self):
        return {
            "b": {f"{i},{j}": c for (i, j), c in sorted(self.b.items())},
            "v": [vi[:] for vi in self.v],
            "u": self.u,
        }

    @classmethod
    def from_json(cls, M, k, obj):
        b = {}
        for key, c in obj.get("b", {}).items():
            i, j = (int(x) for x in key.split(","))
            b[(i, j)] = c
        return cls(M, k, b, obj.get("v"), obj.get("u", 0))


class MRepresentation:
    def __init__(self, M, k, functions, dimension_vector, flags):
        self.M = M
        self.k = k
        self.functions = functions
        self.dimension_vector = dimension_vector
        self.flags = flags
        self.total_codim = len(functions)

    def to_json(self):
        return {
            "k": self.k,
            "functions": [f.to_json() for f in self.functions],
            "dimension_vector": list(self.dimension_vector),
            "total_codim": self.total_codim,
            "flags": {k: (v if v is not None else "unknown") for k, v in self.flags.items()},
        }


def _echelon(family, M: QuadForm, k: int, order=None):
    """One row reduction of the coefficient vectors v_M(F) of an
    (M,k)-family: (its nonzero reduced rows, consistent).  Raises
    MalformedInput when some function has another k.  With order, slot t of
    each vector is slot order[t] of v'_M, and the constant slot stays last.
    consistent, rank v_M == rank v'_M, holds when no pivot falls on the
    constant column."""
    if any(f.k != k for f in family):
        raise MalformedInput(f"every function of an (M,{k})-family must have k = {k}")
    rows = [f.coeff_vectors()[0] for f in family]
    if not rows:
        return [], True
    if order is not None:
        rows = [[row[t] for t in order] + row[-1:] for row in rows]
    red, rk, pivots = rref(FpMatrix(M.field, rows))
    return red.rows[:rk], len(rows[0]) - 1 not in pivots


def _reduced_rows(family, M: QuadForm, k: int, order=None):
    """_echelon's rows; raises NotConsistent when the family spans a
    nonzero constant.  No reduced row is then zero outside the constant
    slot, so every function built from one has max_block() >= 1."""
    rows, consistent = _echelon(family, M, k, order)
    if not consistent:
        raise NotConsistent("family spans a nonzero constant")
    return rows


def classify(family, M: QuadForm, k: int):
    """Flags {pure, consistent, independent, nice} for an (M,k)-family.

    nice is True when witnessed (already nice, or nice after a searched
    block permutation plus translation), otherwise None for unknown: no
    general decision procedure is available.
    """
    rows, consistent = _echelon(family, M, k)
    rank_prime = len(rows) - (not consistent)
    return {
        "pure": all(f.is_pure() for f in family),
        "consistent": consistent,
        "independent": rank_prime == len(family),
        "nice": _nice_search(family, M, k),
    }


def _nice_search(family, M, k):
    from itertools import permutations
    from math import factorial

    if all(f.is_nice() for f in family):
        return True
    if factorial(k) > 720:  # every block permutation up to k = 6
        return None
    p, d, a = M.p, M.d, M.A.rows
    # a shift w (original block indexing) must kill every transformed linear
    # part v_i + 2 sum_j beta_ij (w_j A); a block order only reorders these
    # equations, so they are solved once, before any order is tried
    rows = [
        [2 * beta[i][j] * a[tt][t] % p for j in range(k) for tt in range(d)]
        for beta in (f.beta() for f in family)
        for i in range(k)
        for t in range(d)
    ]
    rhs = [-x % p for f in family for v_i in f.v for x in v_i]
    try:
        shift_flat, _ = solve_linear(FpMatrix(M.field, rows), rhs)
    except Infeasible:
        return None
    shift = [shift_flat[j * d : (j + 1) * d] for j in range(k)]
    for sigma in permutations(range(k)):
        # L(n)_i = n_{sigma^{-1}(i)} moves block i to position inv[i]: each
        # function's quadratic support must then sit in a single pivot column
        inv = {sigma[t] + 1: t for t in range(k)}
        if any(len({max(inv[i], inv[j]) for i, j in f.b}) > 1 for f in family):
            continue
        tin = [[1 if sigma[t] == s else 0 for s in range(k)] for t in range(k)]
        if all(f.transformed(tin, shift).is_nice() for f in family):
            return True
    return None


def standard_rep(family, M: QuadForm, k: int) -> MRepresentation:
    """Standard M-representation by row reduction of the coefficient
    vectors; raises NotConsistent when a nonzero constant lies in the span."""
    functions = [MQuadFn.from_coeff_vector(M, k, row) for row in _reduced_rows(family, M, k)]
    dim_vector = [0] * k
    for f in functions:
        dim_vector[f.max_block() - 1] += 1
    return MRepresentation(M, k, functions, dim_vector, classify(functions, M, k))


def gowers_family(M: QuadForm, s: int):
    """The (M, s+1)-family cutting out Box_s(V(M)):
    {M(n), M(n+h_i) - M(n), (h_i A).h_j (i < j)}."""
    _check_count("s", s, 0)
    k = s + 1
    fams = []
    base = MQuadFn(M, k, {(1, 1): 1}, [M.u[:]] + [[0] * M.d] * s, M.v)
    fams.append(base)
    for i in range(1, s + 1):
        v = [[0] * M.d for _ in range(k)]
        v[i] = M.u[:]
        fams.append(MQuadFn(M, k, {(1, i + 1): 2, (i + 1, i + 1): 1}, v, 0))
    for i in range(1, s + 1):
        for j in range(i + 1, s + 1):
            fams.append(MQuadFn(M, k, {(i + 1, j + 1): 1}, None, 0))
    return fams


def i_projection(family, M: QuadForm, k: int, blocks):
    """(J_I, J'_I): row-reduce so that a maximal independent set of
    combinations does not touch the blocks outside I; V(J_I) is unique even
    though the split itself is not."""
    inside = set(blocks)
    d = M.d
    # slot layout of v'_M: for i = k..1: b_{i,i..1} then v_i
    slot_blocks = []
    for i in range(k, 0, -1):
        for j in range(i, 0, -1):
            slot_blocks.append({i, j})
        for _ in range(d):
            slot_blocks.append({i})
    outside_slots = [t for t, bl in enumerate(slot_blocks) if not bl <= inside]
    inside_slots = [t for t, bl in enumerate(slot_blocks) if bl <= inside]
    order = outside_slots + inside_slots
    width = len(slot_blocks)
    proj, rest = [], []
    n_out = len(outside_slots)
    for row in _reduced_rows(family, M, k, order):
        unpermuted = [0] * (width + 1)
        for pos, t in enumerate(order):
            unpermuted[t] = row[pos]
        unpermuted[width] = row[width]
        fn = MQuadFn.from_coeff_vector(M, k, unpermuted)
        if any(row[:n_out]):
            rest.append(fn)
        else:
            proj.append(fn)
    return proj, rest


def restrict_blocks(fn: MQuadFn, M, blocks):
    """Rewrite a function not touching the other blocks as an (M,|blocks|)-fn."""
    index = {b: t + 1 for t, b in enumerate(sorted(blocks))}
    b = {}
    for (i, j), c in fn.b.items():
        b[(index[i], index[j])] = c
    v = [fn.v[b0 - 1] for b0 in sorted(blocks)]
    return MQuadFn(M, len(blocks), b, v, fn.u)


def _top_block_split(g: MQuadFn, pts):
    """g on (prefix x, block point y), g with top block k = g.k, as
    pre(x) + cross(x, y) + new(y): the prefix function (every term touching
    block k dropped), the function cross = sum_{i<k} b_ik (x_i A) . y (None
    when it is zero), and new = b_kk (yA).y + v_k.y mod p on the block
    points pts."""
    k = g.k
    prefix = MQuadFn(g.M, k - 1, {ij: c for ij, c in g.b.items() if ij[1] < k}, g.v[: k - 1], g.u)
    cross = {(i, j): c for (i, j), c in g.b.items() if i < j == k}
    new = MQuadFn(g.M, 1, {(1, 1): g.b.get((k, k), 0)}, [g.v[k - 1]]).eval_array(pts)
    return prefix, MQuadFn(g.M, k, cross) if cross else None, new


def enumerate_mset(family, M: QuadForm, k: int, budget=DEFAULT_BUDGET):
    """V(family) as an (N, k*d) array, built block by block from the
    family's reduced rows, in lexicographic order.

    A function with top block blk is pre(x) + cross(x, y) + new(y) on
    (prefix row x, block point y) (see _top_block_split).  The functions
    with no cross term and a constant pre filter the p^d block points once
    (the column cut); the others mask each chunk of prefix rows against the
    surviving points only, so the block product is never materialised.
    ENUM_CHUNK_ROWS counts those surviving cells.  The budget still charges
    every prefix row p^d block points, before each block."""
    p, d = M.p, M.d
    by_block = {}
    for row in _reduced_rows(family, M, k):
        f = MQuadFn.from_coeff_vector(M, k, row)
        by_block.setdefault(f.max_block(), []).append(f)
    partial = np.zeros((1, 0), dtype=np.int64)
    pts = all_points(p, d)
    for blk in range(1, k + 1):
        if partial.shape[0] * len(pts) > budget:
            raise BudgetExceeded("M-set enumeration exceeds budget")
        cut = np.ones(len(pts), dtype=bool)
        splits = []
        for f in by_block.get(blk, []):
            prefix, cross, new = _top_block_split(restrict_blocks(f, M, list(range(1, blk + 1))), pts)
            if cross is not None or prefix.b or not prefix.is_pure():
                splits.append((prefix, cross, new))
            else:
                cut &= (new + prefix.u) % p == 0
        block = pts[cut]
        splits = [(prefix, cross, new[cut]) for prefix, cross, new in splits]
        step = max(1, ENUM_CHUNK_ROWS // max(len(block), 1))
        chunks = []  # (first prefix row, kept cells per row, kept columns)
        for start in range(0, len(partial), step):
            part = partial[start : start + step]
            mask = np.ones((len(part), len(block)), dtype=bool)
            for prefix, cross, new in splits:
                vals = prefix.eval_array(part)[:, None] + new
                if cross is not None:
                    rows, _, a, _ = cross._kernel
                    vals += bilinear(part[:, rows], a, block, p, outer=True)
                mask &= vals % p == 0
            chunks.append((start, np.count_nonzero(mask, axis=1), np.nonzero(mask)[1]))
        width = partial.shape[1]
        out = np.empty((sum(len(cols) for _, _, cols in chunks), width + d), dtype=np.int64)
        at = 0
        for start, counts, cols in chunks:
            out[at : at + len(cols), :width] = np.repeat(partial[start : start + step], counts, axis=0)
            out[at : at + len(cols), width:] = block[cols]
            at += len(cols)
        partial = out
    return partial


def mset_cardinality_check(family, M: QuadForm, k: int, budget=DEFAULT_BUDGET):
    """|V(family)| against p^{dk - r}, counted exactly by enumerate_mset,
    whose budget rule refuses a set that does not fit."""
    p, d = M.p, M.d
    r = len(_reduced_rows(family, M, k))
    main = Fraction(p) ** (d * k - r)
    return CountReport(len(enumerate_mset(family, M, k, budget)), main, float(main) * p**-0.5)


def fubini_prepare(family, M: QuadForm, k: int, kprime: int, budget=DEFAULT_BUDGET):
    """Enumerations shared by repeated Fubini checks over the same set:
    (points of Omega in lexicographic order, so grouped by I-prefix, the
    start of each prefix's run plus len(points), |Omega_I|)."""
    if not 0 <= kprime <= k:
        raise MalformedInput(f"kprime must lie in 0..k = {k}, got {kprime}")
    d = M.d
    pts = enumerate_mset(family, M, k, budget)
    if len(pts) == 0:
        raise HypothesisNotMet("empty M-set")
    cut = kprime * d
    changed = np.any(pts[1:, :cut] != pts[:-1, :cut], axis=1)
    boundaries = [0] + (np.flatnonzero(changed) + 1).tolist() + [len(pts)]
    proj, _ = i_projection(family, M, k, set(range(1, kprime + 1)))
    proj_shaped = [restrict_blocks(g, M, list(range(1, kprime + 1))) for g in proj]
    omega_i_size = len(enumerate_mset(proj_shaped, M, kprime, budget))
    return pts, boundaries, omega_i_size


def fubini_check(family, M: QuadForm, k: int, kprime: int, f, budget=DEFAULT_BUDGET, prepared=None):
    """Both sides of the Fubini identity for I = {1..k'}:

        E_{x in Omega} f(x)  vs  E_{m in Omega_I} E_{rest in Omega_I(m)} f(m, rest)

    computed exactly as rational means when f returns Fractions/ints.
    Returns (lhs, rhs, |lhs - rhs|).  Pass prepared = fubini_prepare(...)
    to reuse the enumerations across many test functions."""
    if prepared is None:
        prepared = fubini_prepare(family, M, k, kprime, budget)
    pts, boundaries, omega_i_size = prepared
    values = [
        f(row)
        for a, b in zip(boundaries, boundaries[1:])
        for row in map(tuple, pts[a:b].tolist())
    ]
    # numpy integers are exact too; they become ints so no int64 sum wraps
    kinds = set(map(type, values))
    exact = all(issubclass(t, (int, Fraction, np.integer)) for t in kinds)
    wide = tuple(t for t in kinds if issubclass(t, np.integer))
    if exact and wide:
        values = [int(v) if isinstance(v, wide) else v for v in values]
    mean = (lambda xs: Fraction(sum(xs), len(xs))) if exact else (lambda xs: sum(xs) / len(xs))
    lhs = mean(values)
    # prefixes of Omega_I carrying no fiber contribute zero inner mean
    rhs = sum(mean(values[a:b]) for a, b in zip(boundaries, boundaries[1:])) / omega_i_size
    return lhs, rhs, abs(lhs - rhs)


# -- irreducibility probe --------------------------------------------------------


def _random_poly(p, nvars, degree, rng, nterms=None):
    """A dense uniform draw over all monomials of total degree <= degree.

    Sparse draws are avoided on purpose: sparse cubics factor into linear
    slices far too often (n1 n2 n3 alone meets a quadric in about 3 p^{d-2}
    points), which is adversarial rather than random for the probe."""
    if nterms is not None:
        terms = {_random_exponent(rng, nvars, degree): rng.randrange(p) for _ in range(nterms)}
        return FpMultiPoly(p, nvars, terms)
    monos = _monomials_up_to(nvars, degree)
    coeffs = _uniform_residues(p, len(monos), rng)
    return FpMultiPoly._canonical(p, nvars, {e: c for e, c in zip(monos, coeffs) if c})


def _uniform_residues(p, count, rng):
    """[rng.randrange(p) for _ in range(count)], drawn in bulk: the same
    values, and rng left in the same state.

    For p below 2^32, randrange(p) keeps the top k = p.bit_length() bits of
    one 32-bit word of the generator and draws again while the value is
    >= p.  getrandbits(32 m) returns the next m words, the first in the low
    bits, so each round draws as many words as values are still missing and
    keeps the ones below p: it never takes a word that randrange would not
    have taken."""
    k = p.bit_length()
    if k > 32:
        return [rng.randrange(p) for _ in range(count)]
    out = []
    while len(out) < count:
        m = count - len(out)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4") >> (32 - k)
        out += words[words < p].tolist()
    return out


def ideal_membership(P: FpMultiPoly, family, M: QuadForm, k: int):
    """Q_j with P = sum_j F_j Q_j and deg Q_j <= deg P - 2, or None.

    Degree-bounded, so success certifies containment of V(family) in V(P)
    but failure proves nothing (the general Nullstellensatz for M-sets is
    open).  The linear system is reduced once per value of (family, k,
    deg P) by _membership_system; P only supplies the right-hand side.  The
    unknowns are solve_linear's particular solution (free ones zero), and
    the sum is re-verified, so a P outside the column span gets None."""
    p = M.p
    nvars = k * M.d
    system = _membership_system(p, M.d, k, tuple(map(_value_key, family)), P.degree())
    if system is None:
        return None
    fpolys, monoms, eq_monoms, pivots, inverse = system
    rhs = [P.terms.get(e, 0) for e in eq_monoms]
    sol = [0] * (len(fpolys) * len(monoms))
    for c, row in zip(pivots, inverse):
        sol[c] = sum(x * b for x, b in zip(row, rhs)) % p
    per = len(monoms)
    qs = [
        FpMultiPoly(p, nvars, dict(zip(monoms, sol[j * per : (j + 1) * per])))
        for j in range(len(fpolys))
    ]
    check = FpMultiPoly.zero(p, nvars)
    for fp, q in zip(fpolys, qs):
        check = check + fp * q
    if check != P:
        return None
    return qs


def _value_key(f: MQuadFn):
    """Everything f.as_poly() depends on, as a hashable value."""
    return f.p, tuple(map(tuple, f.M.A.rows)), f.k, tuple(sorted(f.b.items())), tuple(map(tuple, f.v)), f.u


@lru_cache(maxsize=MEMBERSHIP_CACHE_SIZE)
def _membership_system(p, d, k, functions, degree):
    """The system of ideal_membership for the functions with these
    _value_keys, reduced once: one column per F_j times a monomial of
    degree <= degree - 2, one row per monomial of degree <= degree.  None
    when a column has a monomial of higher degree.

    Otherwise (fpolys, monoms, eq_monoms, pivots, inverse): the F_j as
    polynomials, the monomials multiplying them, then ffcore's
    particular_solver of the system with its rows given as monomials: the
    particular solution has x[pivots] = E b_r, b_r the coefficients of P
    on those monomials."""
    fpolys = [
        MQuadFn(QuadForm(PrimeField(fp), list(map(list, a))), fk, dict(b), list(map(list, v)), u).as_poly()
        for fp, a, fk, b, v, u in functions
    ]
    nvars = k * d
    monoms = _monomials_up_to(nvars, max(degree - 2, 0))
    eq_monoms = _monomials_up_to(nvars, degree)
    eq_index = {e: t for t, e in enumerate(eq_monoms)}
    cols = [fp * FpMultiPoly(p, nvars, {e: 1}) for fp in fpolys for e in monoms]
    rows = [[0] * len(cols) for _ in eq_monoms]
    for c, poly in enumerate(cols):
        for e, coef in poly.terms.items():
            if e not in eq_index:
                return None
            rows[eq_index[e]][c] = coef
    chosen, pivots, inverse = particular_solver(FpMatrix(PrimeField(p), rows))
    return tuple(fpolys), monoms, tuple(eq_monoms[i] for i in chosen), tuple(pivots), tuple(map(tuple, inverse))


def sample_mset(family, M, k, rng, count):
    """count points of V(family) by vectorized rejection sampling.

    Batches of 4096 uniform rows of [p]^(k d) come from one numpy generator
    seeded by rng.randrange(2^63); each function of the family is evaluated
    only on the rows the earlier ones kept.  The kept rows are the first
    count hits in draw order.  The budget is the draw cap, 4000 batches of
    4096 rows: BudgetExceeded when they hold fewer than count hits."""
    p, d = M.p, M.d
    np_rng = np.random.default_rng(rng.randrange(2**63))
    got = []
    have = 0
    for _ in range(4000):
        batch = np_rng.integers(0, p, size=(4096, k * d), dtype=np.int64)
        hits = batch
        for f in family:
            # each later function sees only the rows the earlier ones kept
            hits = hits[f.eval_array(hits) == 0]
        if len(hits):
            got.append(hits)
            have += len(hits)
        if have >= count:
            return np.concatenate(got)[:count]
    raise BudgetExceeded("rejection sampling failed to hit the M-set")


def irreducibility_probe(
    family,
    M: QuadForm,
    k: int,
    s: int,
    delta: float,
    trials: int,
    rng,
    budget=DEFAULT_BUDGET,
    samples=1200,
):
    """Test the irreducibility statement on random and adversarial
    polynomials: every verdict must land in SmallIntersection or Contained;
    a middle ground is reported as a theorem violation with full data.

    Exact counting under budget; otherwise a seeded stratified sample with
    a 3-sigma guard band.  Containment is certified by degree-bounded ideal
    membership (available exactly for forward-constructed members).  The
    family is reduced first, so an inconsistent one is refused in either
    mode before any point is drawn."""
    _check_delta(delta)
    if not family:
        raise HypothesisNotMet("the irreducibility probe needs a nonempty family")
    _reduced_rows(family, M, k)
    p, d = M.p, M.d
    nvars = k * d
    exact_mode = p ** (d * k) <= budget
    if exact_mode:
        pts = enumerate_mset(family, M, k, budget)
    else:
        pts = sample_mset(family, M, k, rng, samples)
    polys = []
    fpolys = [f.as_poly() for f in family]
    for t in range(trials):
        style = t % 10
        if style == 8:
            qs = [_random_poly(p, nvars, max(s - 2, 0), rng, 4) for _ in family]
            P = FpMultiPoly.zero(p, nvars)
            for fp, q in zip(fpolys, qs):
                P = P + fp * q
            if P.is_zero():
                P = fpolys[0]
        elif style == 9:
            P = FpMultiPoly.constant(p, nvars, rng.randrange(1, p))
        else:
            P = _random_poly(p, nvars, s, rng)
        polys.append(P)
    values = FpMultiPoly.eval_many(polys, pts)
    return [_probe_one(P, vals, family, M, k, delta, exact_mode) for P, vals in zip(polys, values)]


def _probe_one(P, vals, family, M, k, delta, exact_mode):
    """The verdict on P from its values vals on the probed point set."""
    count = int((vals == 0).sum())
    total = len(vals)
    if exact_mode:
        if count == total:
            cert = ideal_membership(P, family, M, k)
            return {"verdict": "contained", "count": count, "total": total,
                    "certified": cert is not None, "mode": "exact"}
        if count <= delta * total:
            return {"verdict": "small", "count": count, "total": total, "mode": "exact"}
        return {
            "verdict": "middle_ground",
            "count": count,
            "total": total,
            "mode": "exact",
            "polynomial": P.to_json(),
        }
    ratio = count / total
    sigma = (max(ratio * (1 - ratio), 1.0 / total) / total) ** 0.5
    if count == total:
        cert = ideal_membership(P, family, M, k)
        return {
            "verdict": "contained",
            "certified": cert is not None,
            "ratio": 1.0,
            "mode": "sampled",
        }
    if ratio + 3 * sigma <= delta:
        return {"verdict": "small", "ratio": ratio, "sigma": sigma, "mode": "sampled"}
    return {
        "verdict": "middle_ground",
        "ratio": ratio,
        "sigma": sigma,
        "mode": "sampled",
        "polynomial": P.to_json(),
    }


def family_to_json(family, k):
    return {"k": k, "functions": [f.to_json() for f in family]}


def family_from_json(M, obj):
    k = obj["k"]
    _check_count("k", k, 1)
    return [MQuadFn.from_json(M, k, fo) for fo in obj["functions"]], k
