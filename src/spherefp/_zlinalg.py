"""Exact linear solving over Z and over Q.

The decomposition solvers need two primitives: a rational Gaussian
elimination (for certificate checks) and an integer solver A x = b based on
column-style Hermite reduction, used to find integer-valued polynomials in
the binomial basis.  Matrix sizes stay in the low hundreds, so plain
Python bigints are fine.

The reduction depends only on A, and the sphere decomposition solvers pose
one A per (form, degree, solution shape) for many right-hand sides.  So
`_hermite_reduce` is memoised on the values of A (a tuple of row tuples)
in one lru_cache bounded by the constant HERMITE_CACHE_SIZE; `int_solve`
does only the back-substitution when A was seen before.  Nothing is
reduced ahead of a call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def rat_solve(rows, rhs):
    """One solution of rows * x = rhs over Q, or None when inconsistent.

    rows: list of lists of Fractions/ints; free variables are set to 0.
    """
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(ncols + 1)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


# Distinct coefficient matrices whose Hermite reduction is kept.  A solver
# sweep over one form meets one matrix per degree and solution shape; the
# degree-4 systems at p = 5, d = 4 (70 x 86) take about 0.2 MB with their
# reduction, so a full memo stays in the low megabytes.
HERMITE_CACHE_SIZE = 16


@lru_cache(maxsize=HERMITE_CACHE_SIZE)
def _hermite_reduce(rows):
    """The pivot rows of h = u A^T, u unimodular and h in echelon form.

    rows: A as a tuple of row tuples of ints.  Returns, for each positive
    pivot of h in echelon order, (col, pivot, h_row, u_row): h_row and u_row
    are the nonzero (column, value) pairs of that row of h and of u, the
    only rows a back-substitution reads.  Each pivot is the smallest
    nonzero entry left in its column after repeated integer row reduction
    (Hermite-style, Cohen §2.4).  The result is memoised on the matrix, so
    solving many right-hand sides against one system pays for the
    reduction once; it is never mutated.
    """
    nrows = len(rows)
    ncols = len(rows[0])
    at = [list(col) for col in zip(*rows)]  # ncols x nrows
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    row = 0
    pivcols = []
    for col in range(nrows):
        # find pivot: nonzero entry in at[row:][col] with smallest absolute value
        while True:
            cand = [i for i in range(row, ncols) if at[i][col] != 0]
            if not cand:
                break
            piv = min(cand, key=lambda i: (abs(at[i][col]), i))
            at[row], at[piv] = at[piv], at[row]
            u[row], u[piv] = u[piv], u[row]
            done = True
            for i in range(row + 1, ncols):
                if at[i][col] != 0:
                    q = at[i][col] // at[row][col]
                    if q:
                        at[i] = [a - q * b for a, b in zip(at[i], at[row])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[row])]
                    if at[i][col] != 0:
                        done = False
            if done:
                break
        if row < ncols and at[row][col] != 0:
            if at[row][col] < 0:
                at[row] = [-a for a in at[row]]
                u[row] = [-a for a in u[row]]
            pivcols.append((row, col))
            row += 1
            if row == ncols:
                break
    return tuple((c, at[r][c], _support(at[r]), _support(u[r])) for r, c in pivcols)


def _support(row):
    return tuple((j, a) for j, a in enumerate(row) if a)


def int_solve(rows, rhs):
    """One integer solution of rows * x = rhs, or None.

    rows: list of lists of ints; rhs: list of ints.  The transposed system
    is Hermite-reduced once per distinct matrix (_hermite_reduce, keyed on
    its values); each call then solves y H = rhs in echelon order and
    returns the fresh list x = y U, updating the residual and x only on the
    supports of the pivot rows of H and U.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if nrows == 0 or ncols == 0:
        return [0] * ncols if all(b == 0 for b in rhs) else None
    residual = list(rhs)
    x = [0] * ncols
    for c, piv, h_row, u_row in _hermite_reduce(tuple(map(tuple, rows))):
        t, rem = divmod(residual[c], piv)
        if rem:
            return None
        if t:
            for j, a in h_row:
                residual[j] -= t * a
            for j, a in u_row:
                x[j] += t * a
    if any(residual):
        return None
    return x
