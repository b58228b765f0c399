"""Exact integer matrix algebra.

Matrices are dense lists of rows of Python ints (arbitrary precision).
No floating point is used anywhere in this package.

Conventions:

* ``hermite_form(M)`` is the row-style Hermite form of M, which depends
  only on the lattice spanned by M's rows.  ``smith_form(M)`` replays
  the Smith elimination ``S = U*M*V`` on sparse rows and returns S's
  nonzero diagonal and the columns of ``U^-1``, built from the inverse of
  each row operation; it builds neither U nor V.
* ``integer_kernel(M)`` returns a matrix whose *columns* form a basis of
  ``{x : M x = 0}``; its transpose is in Hermite form, and
  ``kernel_coordinates`` solves sparse vectors against such a basis.
* ``cokernel_invariants(M)`` describes ``Z^cols / rowspan(M)``, i.e. the
  cokernel of the map sending a row vector ``x`` to ``x*M``.

A sparse matrix is a pair ``(rows, n)``: a ``{column: entry}`` dict of
the nonzeros of each row, and the column count.  Kernels and cokernels
first eliminate its ±1 pivots (``_eliminate_units``), in one sweep over
the columns from the last to the first, and run the dense Hermite form
(kernel) or the Smith replay (cokernel) only on the residual.  The
kernel is lifted back through the pivot rows, which that order makes
nearly canonical, and HNF-canonicalized.
``kernel_and_cokernel`` takes both from one elimination.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from math import gcd, prod
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
        return None if self.free_rank else prod(self.torsion)


# ---------------------------------------------------------------------------
# basic dense-matrix helpers


def shape(M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows and set(map(len, M)) != {cols}:
        raise ValueError("rows of unequal length")
    return rows, cols


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


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
    if n != n2:
        raise ValueError(f"dimension mismatch: {n} columns times {n2} rows")
    Bt = transpose(B)
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    if any(len(r) != len(v) for r in A):
        raise ValueError("dimension mismatch")
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def is_symmetric(M):
    m, n = shape(M)
    return m == n and all(M[i][j] == M[j][i] for i in range(n) for j in range(i))


# ---------------------------------------------------------------------------
# normal forms


def hermite_form(M):
    """Row-style Hermite form: H is in row echelon form with positive
    pivots, entries above each pivot reduced into [0, pivot), and the same
    for every M whose rows span the same lattice."""
    H = mat_copy(M)
    m, n = shape(H)
    r = 0
    for j in range(n):
        # clear column j below row r, keeping a minimal pivot at row r; the
        # pivot row is zero left of column j, so row operations start at j
        while True:
            nz = [i for i in range(r, m) if H[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(H[i][j]))
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
            if len(nz) == 1:
                break
            done = True
            for i in range(r + 1, m):
                if H[i][j] != 0:
                    q = H[i][j] // H[r][j]
                    H[i][j:] = [a - q * b for a, b in zip(H[i][j:], H[r][j:])]
                    if H[i][j] != 0:
                        done = False
            if done:
                break
        if r < m and H[r][j] != 0:
            if H[r][j] < 0:
                H[r] = [-a for a in H[r]]
            p = H[r][j]
            for i in range(r):
                q = H[i][j] // p
                if q:
                    H[i][j:] = [a - q * b for a, b in zip(H[i][j:], H[r][j:])]
            r += 1
            if r == m:
                break
    return H


def _axpy(a, b, q):
    """a += q * b for sparse {index: entry} dicts, keeping only nonzeros."""
    for j, v in b.items():
        x = a.get(j, 0) + q * v
        if x:
            a[j] = x
        else:
            a.pop(j, None)


def smith_form(M):
    """(d, W): the nonzero diagonal d_1 | d_2 | ... > 0 of the Smith form
    S = U M V, and the columns of W = U^-1 as sparse {row: entry} dicts.

    The pivot is the smallest |entry| of the remaining block, the first in
    row-major order; its column and its row are cleared by Euclid steps
    (a nonzero remainder becomes the pivot by a swap and the clearing is
    repeated); a remaining entry the pivot does not divide has its row
    added to the pivot row before the pivot is chosen again; a negative
    pivot row is negated.  S is kept as sparse rows and neither U nor V
    is built: a row swap swaps W's columns, row_i -= q row_k does
    col_k += q col_i on W, and a negated row negates a column of W.
    """
    S, n = sparse(M)
    m = len(S)
    W = [{i: 1} for i in range(m)]

    def row_op(i, k, q):  # row_i -= q * row_k
        _axpy(S[i], S[k], -q)
        _axpy(W[k], W[i], q)

    def swap_rows(t, i):
        S[t], S[i] = S[i], S[t]
        W[t], W[i] = W[i], W[t]

    def swap_cols(t, j):
        for row in S:
            a, b = row.pop(t, 0), row.pop(j, 0)
            if a:
                row[j] = a
            if b:
                row[t] = b

    t = 0
    while t < min(m, n):
        # rows t.. hold only columns t..; stop at the first row with a unit
        piv = None
        for i in range(t, m):
            if S[i]:
                a, j = min((abs(v), j) for j, v in S[i].items())
                if piv is None or a < piv[0]:
                    piv = a, i, j
                    if a == 1:
                        break
        if piv is None:
            break
        _, i, j = piv
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        again = True
        while again:
            # a step on row i (column j) changes only it and row (column)
            # t, so the nonzeros beyond it can be listed before the loop
            again = False
            for i in [i for i in range(t + 1, m) if t in S[i]]:
                row_op(i, t, S[i][t] // S[t][t])
                if t in S[i]:
                    swap_rows(t, i)
                    again = True
            if again:
                continue
            for j in sorted(j for j in S[t] if j > t):
                q = S[t][j] // S[t][t]
                for row in S:  # col_j -= q * col_t
                    if t in row:
                        _axpy(row, {j: row[t]}, -q)
                if j in S[t]:
                    swap_cols(t, j)
                    again = True
        p = S[t][t]
        bad = next((i for i in range(t + 1, m)
                    if any(v % p for v in S[i].values())), None)
        if bad is not None:
            row_op(t, bad, -1)  # add row `bad` to row t, then redo the pivot
            continue
        if p < 0:
            S[t][t] = -p
            W[t] = {i: -x for i, x in W[t].items()}
        t += 1
    return [S[i][i] for i in range(t)], W


def sparse(M):
    """The sparse matrix (rows, n) of a dense one."""
    _, n = shape(M)
    return [dict(compress(enumerate(r), r)) for r in M], n


def sparse_transpose(rows):
    """(rows, n) of the transpose of sparse rows; zero rows are left out."""
    cols = defaultdict(dict)
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return [cols[j] for j in sorted(cols)], len(rows)


def _eliminate_units(rows, n):
    """Elimination of the ±1 pivots of a sparse matrix, one Schur
    complement each; the input rows are not changed.

    One sweep over the columns from the last to the first, on a
    dict-of-rows copy with a column -> rows index.  An empty column stays
    free.  A column with a unit pivots on the shortest row holding one,
    the smaller index on a tie; a column whose entries have gcd 1 but no
    unit first gets one by Euclid's algorithm on its rows.  Any other
    column is skipped, its entries left to the residual.

    Returns ``(pivots, rest, residual)``: the pivots in elimination order,
    so in decreasing column order, as ``(column, sign, row)``, ``row``
    being the rest of the pivot row, as a column -> entry dict, when it
    was chosen; the surviving columns in increasing order; and the dense
    residual on those columns, nonzero rows only.  Clearing a unit's
    column by row operations and its row by column operations is
    unimodular, so the matrix is equivalent to
    ``diag(±1, ..., ±1) ⊕ residual``.

    The pivots of the kernel's Hermite form are the columns that depend on
    the columns to their right, and row operations keep that set.  A
    column the sweep finds empty is such a column and a pivot column is
    not.  So when no pivot row has an entry right of its column (no
    skipped column entered one), each vector lifted through the pivot rows
    (`_lift`) starts at its own free column, and the lifted basis is
    already the Hermite form; otherwise it is close to it.
    """
    rows = {i: dict(r) for i, r in enumerate(rows) if r}
    cols = [set() for _ in range(n)]
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)

    def subtract(i, f, prow):  # row i -= f * prow
        row = rows[i]
        for j, v in prow.items():
            x = row.get(j, 0) - f * v
            if x:
                row[j] = x
                cols[j].add(i)
            else:
                del row[j]
                cols[j].discard(i)

    pivots = []
    rest = []
    for c in reversed(range(n)):
        rs = cols[c]
        units = [i for i in rs if rows[i][c] in (1, -1)]
        if not units and gcd(*(rows[i][c] for i in rs)) == 1:
            while not units:
                p = min(rs, key=lambda i: (abs(rows[i][c]), len(rows[i]), i))
                a = rows[p][c]
                for i in [i for i in rs if i != p]:
                    subtract(i, rows[i][c] // a, rows[p])
                units = [i for i in rs if rows[i][c] in (1, -1)]
        if not units:
            rest.append(c)
            continue
        p = min(units, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        s = prow.pop(c)
        for j in prow:
            cols[j].discard(p)
        rs.discard(p)
        for i in rs:
            subtract(i, rows[i].pop(c) * s, prow)
        rs.clear()
        pivots.append((c, s, prow))
    rest.reverse()
    residual = [[row.get(j, 0) for j in rest] for _, row in sorted(rows.items()) if row]
    return pivots, rest, residual


def _lift(n, pivots, rest, residual):
    """A basis of the kernel, as rows: a Hermite basis of the residual's
    kernel on the surviving columns, lifted through the pivot rows."""
    if residual:
        # each row of the Hermite form of [R^t | I] is [u R^t | u] for a
        # row u of a unimodular U; the rows with u R^t = 0 come after the
        # pivots of R^t, span R's kernel and are in Hermite form themselves
        r = len(residual)
        H = hermite_form([c + e for c, e in
                          zip(transpose(residual), identity(len(rest)))])
        free = [row[r:] for row in H if not any(row[:r])]
    else:
        free = identity(len(rest))
    if not free:
        return []
    # each pivot row solves for its column: s*x_c + sum_j row[j]*x_j = 0
    X = dict(zip(rest, transpose(free)))  # coordinate j of every vector
    for c, s, prow in reversed(pivots):
        x = [0] * len(free)
        for j, v in prow.items():
            f = s * v
            x = [a - f * b for a, b in zip(x, X[j])]
        X[c] = x
    return transpose([X[j] for j in range(n)])


def _kernel(n, pivots, rest, residual):
    """The canonical kernel basis from an elimination of an n-column matrix."""
    basis = _lift(n, pivots, rest, residual)
    if not basis:
        return [[] for _ in range(n)]
    return transpose(hermite_form(basis))


def _cokernel(rest, residual):
    nz = smith_form(residual)[0]
    return AbelianInvariants(len(rest) - len(nz), tuple(d for d in nz if d > 1))


def integer_kernel(M):
    """Columns form the canonical basis of the saturated kernel {x : Mx = 0}."""
    rows, n = sparse(M)
    return _kernel(n, *_eliminate_units(rows, n))


def cokernel_invariants(M):
    """Invariants of Z^cols / rowspan(M)."""
    return sparse_cokernel(*sparse(M))


def sparse_cokernel(rows, n):
    """Invariants of Z^n / the span of the sparse rows."""
    return _cokernel(*_eliminate_units(rows, n)[1:])


def kernel_and_cokernel(rows, n):
    """(integer_kernel, cokernel invariants) of the sparse matrix (rows, n),
    both from one elimination of its unit pivots."""
    pivots, rest, residual = _eliminate_units(rows, n)
    return _kernel(n, pivots, rest, residual), _cokernel(rest, residual)


def kernel_coordinates(K, vectors):
    """The integer x with K x = v for each sparse v ({index: entry}), for a
    basis K from `integer_kernel`; each x is sparse too.

    K^t is in Hermite form, so the rows of K at the pivots of its columns
    are lower triangular and x follows by forward substitution on them;
    those rows and the columns of K are read once for all the vectors.
    Raises ValueError when some v is not an integer combination of the
    columns.
    """
    d = len(K[0]) if K else 0
    pivots = []  # (row, pivot, [(column, entry) left of the pivot]) per column
    i = 0
    for j in range(d):
        while K[i][j] == 0:  # the pivot row of column j
            i += 1
        pivots.append((i, K[i][j], [(c, y) for c, y in enumerate(K[i][:j]) if y]))
    cols = [[] for _ in range(d)]
    for i, row in enumerate(K):
        for j in compress(range(d), row):
            cols[j].append((i, row[j]))
    out = []
    for v in vectors:
        x = {}
        for j, (i, p, left) in enumerate(pivots):
            t = v.get(i, 0)
            if left:
                t -= sum(y * x[c] for c, y in left if c in x)
            if t:
                q, r = divmod(t, p)
                if r:
                    raise ValueError("no integer solution")
                x[j] = q
        Kx = defaultdict(int)
        for j, q in x.items():
            for i, y in cols[j]:
                Kx[i] += q * y
        if {i: y for i, y in Kx.items() if y} != {i: y for i, y in v.items() if y}:
            raise ValueError("vector is not in the span of the columns")
        out.append(x)
    return out


def column_lattice_hnf(M):
    """Canonical (column-HNF) basis of the lattice spanned by the columns."""
    return transpose([row for row in hermite_form(transpose(M)) if any(row)])

