"""Exact integer and rational matrix algebra.

Matrices are dense lists of rows; entries are Python ints (arbitrary
precision) or :class:`fractions.Fraction`.  No floating point is used
anywhere in this package.

Conventions:

* ``hermite_normal_form`` and ``smith_normal_form`` act on the left/right
  by unimodular transforms, ``H = U*M`` and ``S = U*M*V``.
* ``integer_kernel(M)`` returns a matrix whose *columns* form a basis of
  ``{x : M x = 0}``.
* ``cokernel_invariants(M)`` describes ``Z^cols / rowspan(M)``, i.e. the
  cokernel of the map sending a row vector ``x`` to ``x*M``.

Both ``integer_kernel`` and ``cokernel_invariants`` first eliminate the ±1
pivots sparsely (``_eliminate_units``) and run the dense HNF/SNF only on
the residual; the kernel is lifted back through the pivot rows and then
HNF-canonicalized, so its basis does not depend on the pivot order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: Z^free ⊕ ⊕ Z/d_i, d_1 | d_2 | ..."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion divisors must be >= 2")
            if i > 0 and d % self.torsion[i - 1] != 0:
                raise ValueError("divisibility chain violated")

    @property
    def order(self):
        """Group order, or None when the free rank is positive."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def primary_decomposition(self):
        """Sorted multiset of prime-power cyclic factors (torsion part)."""
        factors = []
        for d in self.torsion:
            m = d
            p = 2
            while p * p <= m:
                if m % p == 0:
                    q = 1
                    while m % p == 0:
                        m //= p
                        q *= p
                    factors.append(q)
                p += 1
            if m > 1:
                factors.append(m)
        return tuple(sorted(factors))

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion


# ---------------------------------------------------------------------------
# basic dense-matrix helpers


def shape(M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    assert all(len(r) == cols for r in M)
    return rows, cols


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_copy(M):
    return [list(r) for r in M]


def transpose(M):
    shape(M)
    return [list(col) for col in zip(*M)]


def mat_mul(A, B):
    m, n = shape(A)
    if m == 0:
        return []
    n2, p = shape(B)
    assert n == n2, "dimension mismatch"
    Bt = transpose(B)
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A):
    return [[-a for a in r] for r in A]


def mat_scale(A, c):
    return [[c * a for a in r] for r in A]


def mat_eq(A, B):
    return shape(A) == shape(B) and all(
        a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb)
    )


def mat_vec(A, v):
    assert all(len(r) == len(v) for r in A)
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def is_symmetric(M):
    m, n = shape(M)
    return m == n and all(M[i][j] == M[j][i] for i in range(n) for j in range(i))


def hstack(A, B):
    assert len(A) == len(B)
    return [ra + rb for ra, rb in zip(A, B)]


def vstack(A, B):
    ma, na = shape(A)
    mb, nb = shape(B)
    assert na == nb or ma == 0 or mb == 0
    return mat_copy(A) + mat_copy(B)


def submatrix(M, rows, cols):
    return [[M[i][j] for j in cols] for i in rows]


# ---------------------------------------------------------------------------
# normal forms


def hermite_normal_form(M):
    """Row-style Hermite form: returns (H, U) with H = U*M, U unimodular.

    H is in row echelon form with positive pivots; entries above each pivot
    are reduced into [0, pivot).
    """
    H = mat_copy(M)
    m, n = shape(H)
    U = identity(m)
    r = 0
    for j in range(n):
        # clear column j below row r, keeping a minimal pivot at row r; the
        # pivot row is zero left of column j, so row operations start at j
        while True:
            piv = None
            for i in range(r, m):
                if H[i][j] != 0 and (piv is None or abs(H[i][j]) < abs(H[piv][j])):
                    piv = i
            if piv is None:
                break
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            done = True
            for i in range(r + 1, m):
                if H[i][j] != 0:
                    q = H[i][j] // H[r][j]
                    H[i][j:] = [a - q * b for a, b in zip(H[i][j:], H[r][j:])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][j] != 0:
                        done = False
            if done:
                break
        if r < m and H[r][j] != 0:
            if H[r][j] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            p = H[r][j]
            for i in range(r):
                q = H[i][j] // p
                if q:
                    H[i][j:] = [a - q * b for a, b in zip(H[i][j:], H[r][j:])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    return H, U


def rank(M):
    H, _ = hermite_normal_form(M)
    return sum(1 for row in H if any(row))


def smith_normal_form(M):
    """Returns (S, U, V) with S = U*M*V diagonal, d_1 | d_2 | ..., d_i >= 0."""
    S = mat_copy(M)
    m, n = shape(S)
    U = identity(m)
    V = identity(n)

    def row_op(i, k, q):  # row_i -= q * row_k
        S[i] = [a - q * b for a, b in zip(S[i], S[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in S:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    t = 0
    while True:
        # locate a minimal nonzero entry in S[t:, t:]
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (
                    piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            S[t], S[i] = S[i], S[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for row in S:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            again = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, q)
                    if S[i][t] != 0:
                        S[t], S[i] = S[i], S[t]
                        U[t], U[i] = U[i], U[t]
                        again = True
            if again:
                continue
            # clear row t
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j] != 0:
                        for row in S:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        again = True
            if not again and all(S[i][t] == 0 for i in range(t + 1, m)):
                break
        # enforce divisibility of the remaining block by the pivot
        p = S[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # add row `bad` to row t, then redo the pivot
            continue
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
        if t == min(m, n):
            break
    return S, U, V


def snf_diagonal(M):
    S, _, _ = smith_normal_form(M)
    m, n = shape(S)
    return [S[i][i] for i in range(min(m, n))]


def _eliminate_units(M):
    """Sparse elimination of the ±1 pivots of M, one Schur complement each.

    Works on a dict-of-rows copy with a column -> rows index.  The next
    pivot is a unit in a column with the fewest entries, on the shortest
    such row; columns wait in a heap keyed by their entry count and are
    pushed again whenever a pivot row changes them, so no pivot rescans
    the matrix.

    Returns ``(pivots, rest, residual)``: the pivots in elimination order as
    ``(column, sign, row)``, ``row`` being the pivot row as a column -> entry
    dict when it was chosen; the surviving columns in increasing order; and
    the dense residual on those columns, nonzero rows only.  Clearing a
    unit's column by row operations and its row by column operations is
    unimodular, so M is equivalent to ``diag(±1, ..., ±1) ⊕ residual``.
    """
    _, n = shape(M)
    rows = {}
    cols = {j: set() for j in range(n)}
    for i, r in enumerate(M):
        row = {j: r[j] for j in compress(range(n), r)}
        if row:
            rows[i] = row
            for j in row:
                cols[j].add(i)
    heap = [(len(rs), j) for j, rs in cols.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        count, c = heapq.heappop(heap)
        rs = cols.get(c)
        if rs is None or len(rs) != count:
            continue  # eliminated, or a stale count
        units = [i for i in rs if rows[i][c] in (1, -1)]
        if not units:
            continue  # pushed again if one of its entries changes
        p = min(units, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        s = prow[c]
        for j in prow:
            cols[j].discard(p)
        for i in cols.pop(c):
            row = rows[i]
            f = row.pop(c) * s
            for j, v in prow.items():
                if j == c:
                    continue
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
        pivots.append((c, s, prow))
        for j in prow:
            if j != c:
                heapq.heappush(heap, (len(cols[j]), j))
    rest = sorted(cols)
    residual = [[row.get(j, 0) for j in rest] for _, row in sorted(rows.items()) if row]
    return pivots, rest, residual


def integer_kernel(M):
    """Columns form the canonical basis of the saturated kernel {x : Mx = 0}."""
    m, n = shape(M)
    if n == 0:
        return []
    pivots, rest, residual = _eliminate_units(M)
    if residual:
        # zero rows of H correspond to rows of U spanning the residual kernel
        H, U = hermite_normal_form(transpose(residual))
        free = [U[i] for i in range(len(rest)) if not any(H[i])]
        if free:
            # an echelon basis lifts to one that is nearly canonical already
            free, _ = hermite_normal_form(free)
    else:
        free = identity(len(rest))
    if not free:
        return [[] for _ in range(n)]
    # each pivot row solves for its column: s*x_c + sum_j row[j]*x_j = 0
    X = dict(zip(rest, transpose(free)))  # coordinate j of every vector
    for c, s, prow in reversed(pivots):
        x = [0] * len(free)
        for j, v in prow.items():
            if j != c:
                f = s * v
                x = [a - f * b for a, b in zip(x, X[j])]
        X[c] = x
    canon, _ = hermite_normal_form(transpose([X[j] for j in range(n)]))
    canon = [row for row in canon if any(row)]
    return transpose(canon)


def cokernel_invariants(M):
    """Invariants of Z^cols / rowspan(M)."""
    _, rest, residual = _eliminate_units(M)
    nonzero = [d for d in snf_diagonal(residual) if d != 0]
    return AbelianInvariants(
        free_rank=len(rest) - len(nonzero), torsion=tuple(d for d in nonzero if d > 1)
    )


def det(M):
    """Exact determinant (Bareiss fraction-free elimination)."""
    m, n = shape(M)
    assert m == n
    if n == 0:
        return 1
    A = mat_copy(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p = A[k][k]
        for i in range(k + 1, n):
            a = A[i][k]
            A[i][k + 1:] = [(x * p - a * y) // prev
                            for x, y in zip(A[i][k + 1:], A[k][k + 1:])]
            A[i][k] = 0
        prev = p
    return sign * A[n - 1][n - 1]


def mat_inverse(M):
    """Exact inverse with Fraction entries; raises on singular input."""
    m, n = shape(M)
    assert m == n
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[k], A[piv] = A[piv], A[k]
        p = A[k][k]
        A[k] = [x / p for x in A[k]]
        for i in range(n):
            if i != k and A[i][k] != 0:
                c = A[i][k]
                A[i] = [x - c * y for x, y in zip(A[i], A[k])]
    return [row[n:] for row in A]


def unimodular_inverse(M):
    """Inverse of a unimodular integer matrix, as an integer matrix.

    The Hermite form of a unimodular M is the identity, so its transform
    is the inverse.
    """
    m, n = shape(M)
    assert m == n
    H, U = hermite_normal_form(M)
    if H != identity(n):
        raise AssertionError("matrix is not unimodular")
    return U


def solve_columns(A, B):
    """Solve A*X = B over Z for a matrix A of full column rank.

    Raises ValueError when no integer solution exists.
    """
    m, n = shape(A)
    mb, p = shape(B)
    assert m == mb
    H, U = hermite_normal_form(A)
    # H = U*A is upper echelon with n pivot rows (full column rank)
    C = mat_mul(U, B)
    pivots = []
    for i in range(m):
        j = next((j for j in range(n) if H[i][j] != 0), None)
        if j is not None:
            pivots.append((i, j))
    if len(pivots) != n:
        raise ValueError("matrix does not have full column rank")
    X = zeros(n, p)
    for i, j in reversed(pivots):
        for col in range(p):
            s = C[i][col] - sum(H[i][jj] * X[jj][col] for jj in range(j + 1, n))
            if s % H[i][j] != 0:
                raise ValueError("no integer solution")
            X[j][col] = s // H[i][j]
    # consistency on the non-pivot rows
    if not mat_eq(mat_mul(A, X), B):
        raise ValueError("inconsistent system")
    return X


def column_lattice_hnf(M):
    """Canonical (column-HNF) basis of the lattice spanned by the columns."""
    H, _ = hermite_normal_form(transpose(M))
    H = [row for row in H if any(row)]
    return transpose(H)


def is_unimodular(M):
    m, n = shape(M)
    return m == n and det(M) in (1, -1)
