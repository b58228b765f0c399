"""Integral lattices.

A lattice is a free Z-module with a symmetric bilinear form, stored as a
Gram matrix.  Root lattices here are positive definite.  Degenerate forms
are handled by splitting off the radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import exact
from .exact import (
    bareiss,
    det,
    identity,
    integer_kernel,
    mat_copy,
    mat_eq,
    mat_mul,
    smith_form,
    transpose,
    zeros,
)


def _check_gram(g):
    if any(len(r) != len(g) for r in g) or not exact.is_symmetric(g):
        raise ValueError("Gram matrix must be square and symmetric")
    return g


@dataclass(frozen=True)
class IntLattice:
    """Equality and hashing read the Gram matrix only; the determinant and
    the definiteness are computed once, on first use, and kept."""

    gram: tuple  # tuple of row tuples, symmetric integer matrix

    def __post_init__(self):
        g = tuple(tuple(r) for r in self.gram)
        object.__setattr__(self, "gram", _check_gram(g))

    @property
    def rank(self):
        return len(self.gram)

    def gram_rows(self):
        return [list(r) for r in self.gram]

    @cached_property
    def _bareiss(self):
        return bareiss(self.gram)

    def det(self):
        return self._bareiss[0]

    def is_positive_definite(self):
        """Sylvester's criterion, from the pass that gives the det."""
        return self._bareiss[1]

    def direct_sum(self, other):
        n, m = self.rank, other.rank
        return IntLattice([list(r) + [0] * m for r in self.gram]
                          + [[0] * n + list(r) for r in other.gram])


def standard_lattice(name, n):
    """Gram matrix of A_n, D_n, E_n, U, V_n or W_n (definite sign convention)."""
    if name == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        G = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
             for i in range(n)]
        return IntLattice(G)
    if name == "D":
        if n < 0:
            raise ValueError("D_n needs n >= 0")
        # low-rank conventions: D0 = 0, D1 = [4], D2 = 2A1, D3 = A3
        if n == 0:
            return IntLattice([])
        if n == 1:
            return IntLattice([[4]])
        if n == 2:
            return IntLattice([[2, 0], [0, 2]])
        if n == 3:
            return standard_lattice("A", 3)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            G[i][i] = 2
        for i in range(n - 2):
            G[i][i + 1] = G[i + 1][i] = -1
        G[n - 3][n - 1] = G[n - 1][n - 3] = -1
        return IntLattice(G)
    if name == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6,7,8}")
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            G[i][i] = 2
        # chain 0-1-...-(n-2), extra node n-1 attached at position 2
        for i in range(n - 2):
            G[i][i + 1] = G[i + 1][i] = -1
        G[2][n - 1] = G[n - 1][2] = -1
        return IntLattice(G)
    if name == "U":
        if n != 2:
            raise ValueError("U has rank 2")
        return IntLattice([[0, 1], [1, 0]])
    if name == "V":
        if n < 0:
            raise ValueError("V_n needs n >= 0")
        return IntLattice(identity(n))
    if name == "W":
        if n < 1:
            raise ValueError("W_n needs n >= 1")
        G = identity(n)
        G[n - 1][n - 1] = 0
        return IntLattice(G)
    raise ValueError(f"unknown lattice family {name!r}")


def radical_and_quotient(L):
    """Split L as radical + complement; returns (radical basis cols, quotient).

    The quotient Gram is the form restricted to a saturated complement of
    the radical, hence nondegenerate.  A nondegenerate L is returned at
    once, as its own quotient.
    """
    n = L.rank
    if L.det():
        return [[] for _ in range(n)], L
    G = L.gram_rows()
    K = integer_kernel(G)
    return K, quotient_by(G, K)


def quotient_by(G, K):
    """The form G restricted to a complement of the span of the columns of
    K, which must be saturated and leave a nondegenerate quotient.

    The complement is the last n - r columns of U^-1 (`exact.smith_form`)
    for the Smith form U K V of K; a span of rank r < n that lies in the
    radical of G is the whole radical exactly when both checks pass.
    """
    r = len(K[0])
    d, Uinv = smith_form(K)
    if d != [1] * r:
        raise AssertionError("radical basis not saturated")
    # comp^t G comp over the nonzeros of comp
    comp = [list(c.items()) for c in Uinv[r:]]
    Q = IntLattice([[sum(x * y * G[i][j] for i, x in a for j, y in b) for b in comp]
                    for a in comp])
    if Q.det() == 0:
        raise AssertionError("quotient by the radical is degenerate")
    return Q


def orthogonal_complement(L, v):
    """Saturated sublattice {x : x.v = 0}, with the restricted form."""
    if all(x == 0 for x in v):
        raise ValueError("v must be nonzero")
    G = L.gram_rows()
    w = exact.mat_vec(G, list(v))
    K = integer_kernel([w])
    Gc = mat_mul(transpose(K), mat_mul(G, K))
    return IntLattice(Gc)


def congruence_sublattice(L, f, m, d):
    """Sublattice {x : f.x = 0 mod m} with the form Gram(L) / d restricted.

    L's Gram is the form scaled by the integer d, so that a form with
    denominators stays integral.  A restricted entry that d does not
    divide raises ValueError: the (form, functional, modulus) combination
    is inconsistent.
    """
    if m < 1 or d < 1:
        raise ValueError("modulus and scale must be >= 1")
    n = L.rank
    if len(f) != n:
        raise ValueError(f"functional has {len(f)} entries, rank is {n}")
    if n == 0:
        return IntLattice([])
    if all(x == 0 for x in f) or m == 1:
        B = identity(n)
    else:
        # solutions of f.x - m*y = 0, projected to the x coordinates
        K = integer_kernel([list(f) + [-m]])
        B = exact.column_lattice_hnf(K[:n])
    idx = m // gcd(m, *f)
    if abs(det(B)) != idx:
        raise AssertionError(f"congruence sublattice index {abs(det(B))} != {idx}")
    G = []
    for row in mat_mul(transpose(B), mat_mul(L.gram_rows(), B)):
        if any(x % d for x in row):
            raise ValueError("restricted form is not integral")
        G.append([x // d for x in row])
    return IntLattice(G)


# ---------------------------------------------------------------------------
# isometry testing (small positive definite lattices)


def _gram_schmidt_row(G, d, lam, k):
    """Row k of the integral Gram-Schmidt data from rows < k: lam[k][l] =
    d[l + 1] mu_kl for l < k, and d[k + 1] = lam[k][k], the leading
    principal minor of order k + 1 (Cohen, Alg. 2.6.7, step 2)."""
    for j in range(k + 1):
        u = G[k][j]
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        lam[k][j] = u
    d[k + 1] = lam[k][k]
    if d[k + 1] <= 0:
        raise ValueError("Gram matrix is not positive definite")


def lll_reduce(G):
    """Integral LLL on a positive definite Gram matrix, delta = 99/100.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7,
    in integers only: d[k + 1] is the leading principal minor of order
    k + 1 of the current Gram matrix (d[0] = 1) and lam[k][l] = d[l + 1]
    times the Gram-Schmidt coefficient mu_kl.  Returns (G', T, T^-1),
    G' = T^t G T, T unimodular (T^-1 by inverse row operations).  G' is
    size-reduced, |2 lam[k][l]| <= d[l + 1], and satisfies the Lovasz
    condition 100 d[k + 1] d[k - 1] >= 99 d[k]^2 - 100 lam[k][k - 1]^2.
    """
    n = len(G)
    G = mat_copy(G)
    T, Tinv = identity(n), identity(n)
    d = [1] * (n + 1)
    lam = zeros(n, n)

    def red(k, l):  # b_k -= q b_l with q the integer nearest lam_kl / d_l
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        for M in T, G:
            for row in M:
                row[k] -= q * row[l]
        G[k] = [a - q * b for a, b in zip(G[k], G[l])]
        Tinv[l] = [a + q * b for a, b in zip(Tinv[l], Tinv[k])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):  # exchange b_k and b_(k-1)
        for M in T, G:
            for row in M:
                row[k - 1], row[k] = row[k], row[k - 1]
        for M in G, Tinv:
            M[k - 1], M[k] = M[k], M[k - 1]
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        m = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
        d[k] = B

    if n:
        _gram_schmidt_row(G, d, lam, 0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            _gram_schmidt_row(G, d, lam, k)
        red(k, k - 1)
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return G, T, Tinv


def short_vectors(G, bound):
    """All x != 0 with x^t G x <= bound, for positive definite G (both signs).

    Fincke-Pohst in integers.  With d and lam from `_gram_schmidt_row`,
    x^t G x = sum_i (d[i + 1] x_i + T_i)^2 / (d[i] d[i + 1]) where
    T_i = sum_(k > i) lam[k][i] x_k; the bound left is kept scaled by
    s = lcm_i d[i] d[i + 1].  x_(n-1) is chosen first and each coordinate
    runs upwards, so the vectors come in the order of (x_(n-1), ..., x_0).
    """
    n = len(G)
    if n == 0:
        return []
    d = [1] * (n + 1)
    lam = zeros(n, n)
    for k in range(n):
        _gram_schmidt_row(G, d, lam, k)
    s = lcm(*(d[i] * d[i + 1] for i in range(n)))
    c = [s // (d[i] * d[i + 1]) for i in range(n)]
    out = []
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            if any(x):
                out.append(list(x))
            return
        t = sum(lam[k][i] * x[k] for k in range(i + 1, n))
        m = isqrt(rem // c[i])  # |d[i + 1] x_i + t| <= m
        di = d[i + 1]
        for xi in range(-((m + t) // di), (m - t) // di + 1):
            x[i] = xi
            rec(i - 1, rem - c[i] * (di * xi + t) ** 2)
        x[i] = 0

    rec(n - 1, s * bound)
    return out


class _Quotient:
    """A lattice modulo its radical, LLL-reduced when it is definite.

    As the right-hand side of `is_isometric` it is kept by `_target`, and
    the short vectors of its reduced Gram, grouped by norm and each paired
    with G v, are enumerated once up to the largest bound asked for.
    """

    def __init__(self, L):
        K, Q = radical_and_quotient(L)
        self.radical_rank = len(K[0]) if K and K[0] else 0
        self.quotient = Q
        if Q.is_positive_definite():
            self.reduced, self.transform, self.inverse = lll_reduce(Q.gram_rows())
        self.bound = 0
        self.by_norm = {}

    def vectors(self, bound):
        if bound > self.bound:
            G = self.reduced
            by_norm = {}
            for v in short_vectors(G, bound):
                Gv = exact.mat_vec(G, v)
                by_norm.setdefault(sum(map(mul, v, Gv)), []).append((v, Gv))
            self.bound, self.by_norm = bound, by_norm
        return self.by_norm


@lru_cache(maxsize=16)
def _target(L):
    return _Quotient(L)


def is_isometric(L1, L2, witness=False):
    """Decide L1 ~= L2 (after radical removal, positive definite, small rank).

    Both quotients are LLL-reduced (`lll_reduce`).  The images of L1's
    reduced basis are searched by backtracking among the short vectors of
    L2's reduced Gram, up to the largest norm in L1's reduced basis.  The
    L2 side is cached per lattice (`_target`), so testing many lattices
    against one L2 reduces it and enumerates its short vectors once.

    With witness=True returns (flag, U) where G1' = U^t G2' U on the
    nondegenerate quotients; otherwise just the flag.
    """
    A, B = _Quotient(L1), _target(L2)
    Q1, Q2 = A.quotient, B.quotient

    def result(flag, U=None):
        return (flag, U) if witness else flag

    n = Q1.rank
    if A.radical_rank != B.radical_rank or n != Q2.rank:
        return result(False)
    if n == 0:
        return result(True, identity(0))
    if Q1.det() != Q2.det():
        return result(False)
    if not (Q1.is_positive_definite() and Q2.is_positive_definite()):
        raise ValueError("isometry testing supports definite lattices only")
    G1 = A.reduced
    by_norm = B.vectors(max(G1[i][i] for i in range(n)))
    cols = [None] * n

    def place(i):
        if i == n:
            return True
        for v, Gv in by_norm.get(G1[i][i], ()):
            if all(sum(map(mul, Gv, cols[j])) == G1[i][j] for j in range(i)):
                cols[i] = v
                if place(i + 1):
                    return True
        return False

    if not place(0):
        return result(False)
    # G1 = W^t G2 W on the reduced bases, with Gi = Ti^t Qi Ti
    W = transpose(cols)
    U = mat_mul(B.transform, mat_mul(W, A.inverse))
    if not mat_eq(mat_mul(transpose(U), mat_mul(Q2.gram_rows(), U)), Q1.gram_rows()):
        raise AssertionError("isometry witness fails U^t G2 U = G1")
    if det(U) not in (1, -1):
        raise AssertionError(f"isometry witness has det {det(U)}, not +-1")
    return result(True, U)
