"""Exact integer solving of A x = b.

The decomposition solvers need one primitive: integer solutions of a
system in the binomial-basis coordinates of integer-valued polynomials.
`_hermite_reduce` brings A^T to echelon form by column-style Hermite
reduction, and `int_solve` back-substitutes one right-hand side through
that reduction.  The reduction depends only on A, so a caller that poses
one A for many right-hand sides keeps it (division memoises it per sphere
system); nothing here is memoised.  Matrix sizes stay in the low hundreds,
so plain Python bigints are fine.
"""

from __future__ import annotations


def _hermite_reduce(rows):
    """The pivot rows of h = u A^T, u unimodular and h in echelon form.

    rows: A as a sequence of row sequences of ints (possibly empty).
    Returns, for each positive pivot of h in echelon order,
    (col, pivot, h_row, u_row): h_row and u_row are the nonzero (column,
    value) pairs of that row of h and of u, the only rows a
    back-substitution reads.  Each pivot is the smallest nonzero entry left
    in its column after repeated integer row reduction (Hermite-style,
    Cohen §2.4).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
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


def int_solve(reduction, rhs, ncols):
    """One integer solution x (of length ncols) of A x = rhs, or None.

    reduction is _hermite_reduce(A).  Solves y H = rhs in echelon order and
    returns the fresh list x = y U, updating the residual and x only on the
    supports of the pivot rows of H and U.  An empty system (no rows or no
    columns) has no pivots: x is all zeros when rhs is, else None.
    """
    residual = list(rhs)
    x = [0] * ncols
    for c, piv, h_row, u_row in reduction:
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
