import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp.ffcore import (
    FpMatrix,
    Infeasible,
    NotPrime,
    PrimeField,
    matrix_inverse,
    nullspace,
    particular_solver,
    rank,
    rref,
    solve_linear,
)

from conftest import random_symmetric


def test_prime_validation():
    with pytest.raises(NotPrime):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(3)
    assert PrimeField(5).p == 5


def test_legendre_examples():
    f5 = PrimeField(5)
    assert f5.legendre(0) == 0
    assert f5.legendre(1) == 1
    # squares mod 5 are {0, 1, 4} by exhaustion
    assert sorted({x * x % 5 for x in range(5)}) == [0, 1, 4]
    assert f5.legendre(2) == -1


def test_legendre_multiplicative():
    rng = random.Random(1)
    for p in (5, 7, 11, 13):
        f = PrimeField(p)
        for _ in range(200):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert f.legendre(a * b) == f.legendre(a) * f.legendre(b)


def test_smallest_nonresidue():
    assert PrimeField(5).smallest_nonresidue() == 2
    assert PrimeField(7).smallest_nonresidue() == 3
    assert PrimeField(13).smallest_nonresidue() == 2


def test_inverse_extended_euclid():
    for p in (5, 7, 11, 13):
        f = PrimeField(p)
        for a in range(1, p):
            assert a * f.inv(a) % p == 1


def test_rref_identity_and_zero():
    f5 = PrimeField(5)
    ident = FpMatrix.identity(f5, 4)
    red, rk, piv = rref(ident)
    assert red == ident and rk == 4 and piv == [0, 1, 2, 3]
    zero = FpMatrix.zero(f5, 3, 3)
    red, rk, piv = rref(zero)
    assert red == zero and rk == 0 and piv == []


def test_rref_rank_one_example():
    f5 = PrimeField(5)
    m = FpMatrix(f5, [[1, 2], [2, 4]])
    _, rk, _ = rref(m)
    assert rk == 1


def test_rref_idempotent_and_rank_transpose():
    rng = random.Random(2)
    for p in (5, 7, 11, 13):
        f = PrimeField(p)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            m = FpMatrix(f, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])
            red, rk, _ = rref(m)
            red2, rk2, _ = rref(red)
            assert red2 == red and rk2 == rk
            assert rank(m.transpose()) == rk


def test_solve_linear_identity_and_zero():
    f5 = PrimeField(5)
    ident = FpMatrix.identity(f5, 3)
    part, basis = solve_linear(ident, [1, 2, 3])
    assert part == [1, 2, 3] and basis == []
    zero = FpMatrix.zero(f5, 2, 3)
    part, basis = solve_linear(zero, [0, 0])
    assert part == [0, 0, 0] and len(basis) == 3


def test_solve_linear_line_by_exhaustion():
    f5 = PrimeField(5)
    m = FpMatrix(f5, [[1, 2]])
    part, basis = solve_linear(m, [3])
    assert len(basis) == 1
    solutions = {tuple((part[j] + t * basis[0][j]) % 5 for j in range(2)) for t in range(5)}
    brute = {(x, y) for x in range(5) for y in range(5) if (x + 2 * y) % 5 == 3}
    assert solutions == brute


def test_solve_linear_infeasible():
    f5 = PrimeField(5)
    m = FpMatrix(f5, [[1, 0], [1, 0]])
    with pytest.raises(Infeasible):
        solve_linear(m, [1, 2])


def test_solutions_satisfy_system_randomized():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice((5, 7, 11))
        f = PrimeField(p)
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = FpMatrix(f, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])
        x = [rng.randrange(p) for _ in range(ncols)]
        rhs = m.matvec(x)
        part, basis = solve_linear(m, rhs)
        assert m.matvec(part) == rhs
        for b in basis:
            assert m.matvec(b) == [0] * nrows


def test_nullspace_spans_kernel():
    f5 = PrimeField(5)
    a = FpMatrix(f5, random_symmetric(f5, 4, random.Random(4)))
    basis = nullspace(a)
    for b in basis:
        assert a.matvec(b) == [0, 0, 0, 0]
    assert len(basis) == 4 - rank(a)


def test_rref_unique_on_row_equivalent_matrices():
    # row-equivalent matrices share their reduced echelon form, which is
    # what makes representation standardization canonical
    rng = random.Random(8)
    for p in (5, 7):
        f = PrimeField(p)
        for _ in range(40):
            nrows, ncols = rng.randint(2, 5), rng.randint(2, 6)
            m = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            red1, _, _ = rref(FpMatrix(f, m))
            mixed = [row[:] for row in m]
            for _ in range(6):
                op = rng.randrange(3)
                i, j = rng.randrange(nrows), rng.randrange(nrows)
                if op == 0 and i != j:
                    mixed[i], mixed[j] = mixed[j], mixed[i]
                elif op == 1:
                    c = rng.randrange(1, p)
                    mixed[i] = [(c * x) % p for x in mixed[i]]
                elif i != j:
                    c = rng.randrange(p)
                    mixed[i] = [(x + c * y) % p for x, y in zip(mixed[i], mixed[j])]
            red2, _, _ = rref(FpMatrix(f, mixed))
            assert red1 == red2


# -- the one F_p eliminator against independent references ---------------------


def _rref_reference(mat):
    """The row reduction as first written: every entry re-reduced through
    the field, every row rebuilt in full; same pivot rule."""
    field = mat.field
    p = field.p
    m = [row[:] for row in mat.rows]
    nrows, ncols = mat.nrows, mat.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.inv(m[r][c])
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(m[i][j] - f * m[r][j]) % p for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return FpMatrix(field, m), r, pivots


def _solve_mod_numpy(rows, rhs, p):
    """One solution of rows x = rhs over F_p by vectorized elimination, or
    None.  rows: (m, n) int array.  Free variables are set to zero."""
    a = np.concatenate([rows % p, (rhs % p).reshape(-1, 1)], axis=1).astype(np.int64)
    m, ncols = a.shape
    n = ncols - 1
    pivots = []
    r = 0
    for c in range(n):
        nz = np.flatnonzero(a[r:, c])
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    if np.any(a[r:, n]):
        return None
    x = np.zeros(n, dtype=np.int64)
    for t, c in enumerate(pivots):
        x[c] = a[t, n]
    return x


# (rows, cols, share of nonzero entries); "tall" has the shape of the
# (monomials x columns) systems of msets.ideal_membership, up to 700 x 31
_SHAPES = {
    "dense": ((1, 12), (1, 12), 1.0),
    "sparse": ((1, 12), (1, 12), 0.15),
    "tall": ((100, 700), (5, 31), 0.05),
}


def _system(p, nrows, ncols, density, kind, seed):
    """(p, rows, rhs, kind): kind "consistent" has rhs = rows x0,
    "inconsistent" has a last row that combines the others with a right-hand
    side off by one, "random" has a uniform right-hand side."""
    rng = random.Random(seed)
    rows = [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if kind == "random":
        return p, rows, [rng.randrange(p) for _ in range(nrows)], kind
    x0 = [rng.randrange(p) for _ in range(ncols)]
    if kind == "inconsistent" and nrows >= 2:
        mix = [rng.randrange(p) for _ in range(nrows - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(mix, rows)) % p for j in range(ncols)]
    rhs = [sum(a * x for a, x in zip(row, x0)) % p for row in rows]
    if kind == "inconsistent" and nrows >= 2:
        rhs[-1] = (rhs[-1] + 1) % p
    else:
        kind = "consistent"
    return p, rows, rhs, kind


@st.composite
def _systems(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    (rlo, rhi), (clo, chi), density = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    nrows, ncols = draw(st.integers(rlo, rhi)), draw(st.integers(clo, chi))
    kind = draw(st.sampled_from(("consistent", "inconsistent", "random")))
    return _system(p, nrows, ncols, density, kind, draw(st.integers(0, 2**32)))


_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _check_against_numpy_reference(case):
    p, rows, rhs, kind = case
    m = FpMatrix(PrimeField(p), rows)
    expected = _solve_mod_numpy(np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64), p)
    if expected is None:
        assert kind != "consistent"
        with pytest.raises(Infeasible):
            solve_linear(m, rhs)
        return
    assert kind != "inconsistent"
    part, basis = solve_linear(m, rhs)
    assert part == expected.tolist()
    assert solve_linear(m, [b - 2 * p for b in rhs]) == (part, basis)  # rhs is reduced mod p
    assert m.matvec(part) == rhs
    assert all(m.matvec(b) == [0] * m.nrows for b in basis)
    assert len(basis) == m.ncols - rank(m)
    assert nullspace(m) == basis


@_settings
@given(_systems())
def test_solve_linear_matches_numpy_reference(case):
    _check_against_numpy_reference(case)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("kind", ["consistent", "inconsistent"])
def test_solve_linear_matches_numpy_reference_at_largest_membership_shape(p, kind):
    _check_against_numpy_reference(_system(p, 700, 31, 0.05, kind, seed=p))


def _apply_solver(solver, rhs, ncols, p):
    rows, pivots, inverse = solver
    x = [0] * ncols
    for c, row in zip(pivots, inverse):
        x[c] = sum(e * rhs[i] for e, i in zip(row, rows)) % p
    return x


@_settings
@given(_systems())
def test_particular_solver_gives_solve_linears_particular_solution(case):
    # one reduction serves every right-hand side: a solvable one gets the
    # particular solution of solve_linear, any other one a vector that
    # fails mat x = b
    p, rows, rhs, _ = case
    m = FpMatrix(PrimeField(p), rows)
    solver = particular_solver(m)
    assert len(solver[0]) == len(solver[1]) == rank(m)
    x = _apply_solver(solver, rhs, m.ncols, p)
    try:
        part, _ = solve_linear(m, rhs)
    except Infeasible:
        assert m.matvec(x) != rhs
    else:
        assert x == part


@_settings
@given(_systems())
def test_rref_matches_reference(case):
    p, rows, rhs, _ = case
    f = PrimeField(p)
    for mat in (FpMatrix(f, rows), FpMatrix(f, [row + [b] for row, b in zip(rows, rhs)])):
        red, rk, piv = rref(mat)
        ref, ref_rk, ref_piv = _rref_reference(mat)
        assert (red.rows, rk, piv) == (ref.rows, ref_rk, ref_piv)
        assert (red.nrows, red.ncols) == (mat.nrows, mat.ncols)


def test_rref_leaves_its_argument_unchanged():
    f7 = PrimeField(7)
    rows = [[0, 3, 1], [2, 6, 0], [4, 5, 2]]
    m = FpMatrix(f7, rows)
    rref(m)
    solve_linear(m, [1, 2, 3])
    assert m.rows == rows


def test_matrix_inverse_randomized():
    rng = random.Random(9)
    singular = 0
    for p in (5, 7, 11, 13):
        f = PrimeField(p)
        for _ in range(60):
            n = rng.randint(1, 6)
            b = FpMatrix(f, [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)])
            if rank(b) < n:
                singular += 1
                with pytest.raises(ValueError):
                    matrix_inverse(b)
                continue
            inv = matrix_inverse(b)
            ident = FpMatrix.identity(f, n)
            assert b.matmul(inv) == ident and inv.matmul(b) == ident
    assert singular > 0


def test_matrix_inverse_rejects_singular_and_non_square():
    f5 = PrimeField(5)
    # [B | I] has full rank for every B, so a rank test alone misses this
    with pytest.raises(ValueError, match="singular"):
        matrix_inverse(FpMatrix(f5, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="singular"):
        matrix_inverse(FpMatrix.zero(f5, 3, 3))
    with pytest.raises(ValueError, match="square"):
        matrix_inverse(FpMatrix(f5, [[1, 0, 0], [0, 1, 0]]))
    assert matrix_inverse(FpMatrix(f5, [[2]])) == FpMatrix(f5, [[3]])
