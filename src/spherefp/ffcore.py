"""Exact arithmetic in the prime field F_p and the small linear algebra kit
used everywhere else: canonical representatives, Legendre symbols, reduced
row echelon form, and linear solving with explicit null-space bases.
The library's one error hierarchy, with its exit codes, is defined here.
"""

from __future__ import annotations


class SpherefpError(Exception):
    """Base of every error the library raises on purpose.  The class carries
    the exit policy: the command line prints f"{label}: {message}" and exits
    with exit_code, never 0 or 1, the two branches of a dichotomy."""

    exit_code = 4
    label = "internal error"


class MalformedInput(SpherefpError, ValueError):
    """Not a valid object: ragged, asymmetric, or mismatched in arity."""

    exit_code = 2
    label = "input error"


class BudgetExceeded(SpherefpError):
    exit_code = 3
    label = "budget exceeded"


class HypothesisNotMet(SpherefpError, ValueError):
    """Well-formed input outside a stated hypothesis: a rank bound,
    deg < p, values in Z/p, independent shifts, a consistent family."""

    exit_code = 5
    label = "hypothesis not met"


class TheoremViolation(SpherefpError):
    """A proven implication failed on a concrete instance.

    Never raised in the theorem regime; at desk scale it is an honest
    failure mode rather than a silently wrong certificate.
    """

    label = "theorem violation"


class NotPrime(MalformedInput):
    pass


class HypothesisFailed(HypothesisNotMet):
    """A checked hypothesis fails; witness is the point (or data) where."""

    def __init__(self, witness, message="hypothesis failed"):
        super().__init__(f"{message}: witness {witness}")
        self.witness = witness


class Infeasible(SpherefpError):
    """Raised by solve_linear when the system has no solution."""


def _is_prime(n: int) -> bool:
    # deterministic trial division; moduli here are desk-scale
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field F_p for an odd prime p >= 5, values as ints in {0..p-1}."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p < 5:
            raise MalformedInput("p must be an odd prime >= 5")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def red(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a: int) -> int:
        # extended Euclid, not Fermat exponentiation
        a = a % self.p
        if a == 0:
            raise SpherefpError("inverse of 0")
        r0, r1 = self.p, a
        s0, s1 = 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        return s0 % self.p

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def legendre(self, a: int) -> int:
        """0 if a = 0, +1 if a is a nonzero square mod p, -1 otherwise."""
        a = a % self.p
        if a == 0:
            return 0
        t = pow(a, (self.p - 1) // 2, self.p)
        return 1 if t == 1 else -1

    def smallest_nonresidue(self) -> int:
        """The least c in {2..p-1} with legendre(c) = -1."""
        for c in range(2, self.p):
            if self.legendre(c) == -1:
                return c
        raise TheoremViolation("no quadratic non-residue found")  # impossible for p >= 3

    def sqrt(self, a: int):
        """A square root of a, or None when a is a non-residue."""
        a = a % self.p
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            return None
        for x in range(1, self.p):  # desk-scale p; direct scan is fine
            if x * x % self.p == a:
                return x
        return None


class FpMatrix:
    """Dense matrix over F_p; entries kept as canonical representatives."""

    def __init__(self, field: PrimeField, rows):
        p = field.p
        self._set(field, [[x % p for x in row] for row in rows])
        for row in self.rows:
            if len(row) != self.ncols:
                raise MalformedInput("ragged matrix")

    def _set(self, field, rows):
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def _canonical(cls, field, rows):
        """Wrap rows that already hold equal-length canonical entries,
        without copying or reducing them again."""
        mat = cls.__new__(cls)
        mat._set(field, rows)
        return mat

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, [[0] * ncols for _ in range(nrows)])

    def copy(self):
        return FpMatrix(self.field, [row[:] for row in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __repr__(self):
        return f"FpMatrix(p={self.field.p}, {self.rows})"

    def transpose(self):
        return FpMatrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        if self.ncols != other.nrows:
            raise MalformedInput("dimension mismatch")
        p = self.field.p
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = 0
                for k in range(self.ncols):
                    s += self.rows[i][k] * other.rows[k][j]
                row.append(s % p)
            out.append(row)
        return FpMatrix(self.field, out)

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise MalformedInput("dimension mismatch")
        p = self.field.p
        return [
            sum(self.rows[i][k] * vec[k] for k in range(self.ncols)) % p
            for i in range(self.nrows)
        ]

    def vecmat(self, vec):
        if len(vec) != self.nrows:
            raise MalformedInput("dimension mismatch")
        p = self.field.p
        return [
            sum(vec[i] * self.rows[i][j] for i in range(self.nrows)) % p
            for j in range(self.ncols)
        ]

    def is_symmetric(self):
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def to_lists(self):
        return [row[:] for row in self.rows]


def rref(mat: FpMatrix):
    """Reduced row echelon form over F_p.

    Pivot tie-breaking: leftmost nonzero column, topmost row, so the output
    (and hence everything built on it) is unique and reproducible.
    Returns (reduced FpMatrix, rank, pivot column indices).
    """
    field = mat.field
    p = field.p
    m = [row[:] for row in mat.rows]
    nrows = mat.nrows
    pivots = []
    r = 0
    for c in range(mat.ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        inv = field.inv(prow[c])
        # every row at or below r is zero left of c, so only the tail changes
        prow[c:] = tail = [x * inv % p for x in prow[c:]]
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return FpMatrix._canonical(field, m), r, pivots


def rank(mat: FpMatrix) -> int:
    return rref(mat)[1]


def _kernel_basis(red: FpMatrix, pivots, n):
    """Basis of the solutions of the homogeneous system on the first n
    columns of a reduced matrix: one vector per free column."""
    p = red.field.p
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -red.rows[r][free] % p
        basis.append(v)
    return basis


def solve_linear(mat: FpMatrix, rhs):
    """Solve mat * x = rhs over F_p.

    Returns (particular solution, null-space basis); every solution is
    particular + span(basis).  Raises Infeasible when there is none.
    """
    field = mat.field
    p = field.p
    if len(rhs) != mat.nrows:
        raise MalformedInput("dimension mismatch")
    aug = FpMatrix._canonical(field, [row + [b % p] for row, b in zip(mat.rows, rhs)])
    red, _, pivots = rref(aug)
    n = mat.ncols
    if n in pivots:
        raise Infeasible("inconsistent linear system")
    particular = [0] * n
    for r, c in enumerate(pivots):
        particular[c] = red.rows[r][n]
    return particular, _kernel_basis(red, pivots, n)


def nullspace(mat: FpMatrix):
    """Basis of {x : mat * x = 0}."""
    red, _, pivots = rref(mat)
    return _kernel_basis(red, pivots, mat.ncols)


def matrix_inverse(B: FpMatrix) -> FpMatrix:
    """B^{-1}, read off the reduction of [B | I]; raises HypothesisNotMet when
    B is singular."""
    n = B.nrows
    if B.ncols != n:
        raise MalformedInput("matrix is not square")
    aug = FpMatrix._canonical(
        B.field, [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(B.rows)]
    )
    red, _, pivots = rref(aug)
    # [B | I] always has rank n; B is invertible iff no pivot lands in I
    if pivots and pivots[-1] >= n:
        raise HypothesisNotMet("matrix is singular")
    return FpMatrix._canonical(B.field, [row[n:] for row in red.rows[:n]])
