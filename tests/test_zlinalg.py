"""The memoised integer solver against the single-shot solver it replaced,
and its sparse back-substitution against a dense one."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from spherefp import _zlinalg
from spherefp._zlinalg import int_solve


def _int_solve_reference(rows, rhs):
    """One integer solution of rows * x = rhs, or None: the reduction and
    the back-substitution in one pass, nothing kept between calls."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if nrows == 0 or ncols == 0:
        return [0] * ncols if all(b == 0 for b in rhs) else None
    return _dense_back_substitution(*_hermite_reference(rows), rhs)


def _hermite_reference(rows):
    """(at, u, pivcols): u unimodular, u A^T = at in echelon form, as dense
    lists, with (row, col) of each positive pivot."""
    nrows = len(rows)
    ncols = len(rows[0])
    at = [list(col) for col in zip(*rows)]  # ncols x nrows
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    row = 0
    pivcols = []
    for col in range(nrows):
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
    return at, u, pivcols


def _dense_back_substitution(at, u, pivcols, rhs):
    """y at = rhs in echelon order over whole dense rows, then x = y u, or
    None when a pivot does not divide or a residual is left."""
    ncols = len(u)
    y = [0] * ncols
    residual = list(rhs)
    for r, c in pivcols:
        if residual[c] % at[r][c] != 0:
            return None
        t = residual[c] // at[r][c]
        y[r] = t
        if t:
            residual = [a - t * b for a, b in zip(residual, at[r])]
    if any(residual):
        return None
    x = [0] * ncols
    for i in range(ncols):
        if y[i]:
            for j in range(ncols):
                x[j] += y[i] * u[i][j]
    return x


def _apply(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


@st.composite
def _systems(draw):
    """(rows, [rhs, ...]): a small integer matrix, made rank deficient or
    given zero columns on some draws, with right-hand sides in its image, in
    the image scaled down (often not integral), and arbitrary (often
    inconsistent)."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a row that is an integer combination of two others
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(entry), draw(entry)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    rhss = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["image", "scaled", "arbitrary"]))
        if kind == "arbitrary":
            rhss.append([draw(st.integers(-20, 20)) for _ in range(nrows)])
        else:
            b = _apply(rows, [draw(entry) for _ in range(ncols)])
            rhss.append([v // 2 for v in b] if kind == "scaled" else b)
    return rows, rhss


_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_settings
@given(_systems())
def test_int_solve_matches_reference_in_either_order(case):
    rows, rhss = case
    expected = [_int_solve_reference(rows, b) for b in rhss]
    for x, b in zip(expected, rhss):
        assert x is None or _apply(rows, x) == b
    _zlinalg._hermite_reduce.cache_clear()
    for order in (list(range(len(rhss))), list(reversed(range(len(rhss))))):
        for i in order:
            assert int_solve(rows, rhss[i]) == expected[i]


@_settings
@given(_systems())
def test_int_solve_answers_do_not_alias_the_memo(case):
    rows, rhss = case
    kept = copy.deepcopy(rows)
    for b in rhss:
        x = int_solve(rows, b)
        if x is not None:
            x[0] += 7  # a caller scribbling on its answer
        assert int_solve(kept, b) == _int_solve_reference(kept, b)
    # the caller's matrix changes after a call: the next answer is the one
    # for the new values, and the old values still get theirs
    rows[0][0] += 1
    for b in rhss:
        assert int_solve(rows, b) == _int_solve_reference(rows, b)
        assert int_solve(kept, b) == _int_solve_reference(kept, b)


def test_int_solve_degenerate_shapes():
    assert int_solve([], []) == _int_solve_reference([], []) == []
    assert int_solve([[], []], [0, 0]) == []
    assert int_solve([[], []], [0, 1]) is None
    assert int_solve([[0, 0]], [0]) == [0, 0]
    assert int_solve([[0, 0]], [1]) is None
    assert int_solve([[2, 4]], [3]) is None  # consistent over Q only
    assert int_solve([[2, 3]], [1]) == _int_solve_reference([[2, 3]], [1])


def test_reduction_memo_is_bounded_and_keyed_on_values():
    assert _zlinalg._hermite_reduce.cache_info().maxsize == _zlinalg.HERMITE_CACHE_SIZE
    _zlinalg._hermite_reduce.cache_clear()
    rows = [[1, 2, 3], [0, 4, 5]]
    int_solve(rows, [1, 1])
    int_solve([list(r) for r in rows], [2, 3])
    info = _zlinalg._hermite_reduce.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for k in range(_zlinalg.HERMITE_CACHE_SIZE + 5):
        int_solve([[k + 1, 1]], [k])
    assert _zlinalg._hermite_reduce.cache_info().currsize == _zlinalg.HERMITE_CACHE_SIZE


@st.composite
def _wide_systems(draw):
    """(rows, [rhs, ...]): larger and sparser systems than _systems, with
    right-hand sides in the integer image and image vectors with one entry
    moved (mostly inconsistent over Z: a pivot that does not divide or a
    residual left over)."""
    nrows = draw(st.integers(2, 10))
    ncols = draw(st.integers(2, 14))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-40, 40))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows[j] = [3 * a for a in rows[i]]
    rhss = []
    for _ in range(draw(st.integers(1, 5))):
        b = _apply(rows, [draw(st.integers(-9, 9)) for _ in range(ncols)])
        if draw(st.booleans()):
            b[draw(st.integers(0, nrows - 1))] += draw(st.integers(1, 5))
        rhss.append(b)
    return rows, rhss


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_wide_systems())
def test_int_solve_matches_dense_back_substitution_first_and_memoised(case):
    rows, rhss = case
    reduced = _hermite_reference(rows)
    expected = [_dense_back_substitution(*reduced, b) for b in rhss]
    for x, b in zip(expected, rhss):
        assert x is None or _apply(rows, x) == b
    for attempt in ("first", "memoised"):
        if attempt == "first":
            _zlinalg._hermite_reduce.cache_clear()
        for b, want in zip(rhss, expected):
            assert int_solve(rows, b) == want
        info = _zlinalg._hermite_reduce.cache_info()
        assert info.misses == 1 and info.hits == (len(rhss) - 1 if attempt == "first" else 2 * len(rhss) - 1)


def test_int_solve_sparse_pivot_rows_examples():
    # a pivot that does not divide, a residual left past the last pivot,
    # and a consistent system whose U rows carry several entries
    rows = [[2, 4, 0], [0, 6, 3]]
    _zlinalg._hermite_reduce.cache_clear()
    for b in ([1, 0], [2, 3], [4, 9], [0, 0]):
        assert int_solve(rows, b) == _int_solve_reference(rows, b)
    assert int_solve([[1, 1], [1, 1]], [1, 2]) is None
    x = int_solve([[3, 5, 7], [2, 0, 1]], [1, 4])
    assert x == _int_solve_reference([[3, 5, 7], [2, 0, 1]], [1, 4])
    assert _apply([[3, 5, 7], [2, 0, 1]], x) == [1, 4]
