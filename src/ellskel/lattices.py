"""Integral and rational lattices.

A lattice is a free Z-module with a symmetric bilinear form, stored as a
Gram matrix.  Root lattices here are positive definite.  Degenerate forms
are handled by splitting off the radical; discriminant data always refers
to the nondegenerate quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import exact
from .exact import (
    AbelianInvariants,
    det,
    identity,
    integer_kernel,
    mat_copy,
    mat_eq,
    mat_mul,
    mat_inverse,
    smith_normal_form,
    transpose,
    unimodular_inverse,
    zeros,
)


@dataclass(frozen=True)
class IntLattice:
    gram: tuple  # tuple of row tuples, symmetric integer matrix
    label: str | None = None

    def __post_init__(self):
        g = tuple(tuple(r) for r in self.gram)
        object.__setattr__(self, "gram", g)
        assert exact.is_symmetric([list(r) for r in g])

    @property
    def rank(self):
        return len(self.gram)

    def gram_rows(self):
        return [list(r) for r in self.gram]

    def det(self):
        return det(self.gram_rows())

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_positive_definite(self):
        """Sylvester's criterion in one Bareiss pass without row swaps.

        After step k the pivot A[k][k] is the leading principal minor of
        order k + 1, so the first pivot <= 0 decides.
        """
        A = self.gram_rows()
        n = self.rank
        prev = 1
        for k in range(n):
            p = A[k][k]
            if p <= 0:
                return False
            for i in range(k + 1, n):
                a = A[i][k]
                A[i][k + 1:] = [(x * p - a * y) // prev
                                for x, y in zip(A[i][k + 1:], A[k][k + 1:])]
            prev = p
        return True

    def direct_sum(self, other):
        n, m = self.rank, other.rank
        G = zeros(n + m, n + m)
        for i in range(n):
            for j in range(n):
                G[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                G[n + i][n + j] = other.gram[i][j]
        return IntLattice(G)


@dataclass(frozen=True)
class RatLattice:
    gram: tuple  # tuple of row tuples, symmetric, Fraction entries

    def __post_init__(self):
        g = tuple(tuple(Fraction(x) for x in r) for r in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        assert all(len(r) == n for r in g)
        assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))

    @property
    def rank(self):
        return len(self.gram)

    def gram_rows(self):
        return [list(r) for r in self.gram]


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite bilinear/quadratic form on L*/L of the nondegenerate part."""

    invariants: AbelianInvariants
    bilinear: tuple  # Fractions mod 1, pairings of the torsion generators
    quadratic: tuple | None  # Fractions mod 2 on generators; None unless even

    @property
    def order(self):
        return self.invariants.order


def standard_lattice(name, n):
    """Gram matrix of A_n, D_n, E_n, U, V_n or W_n (definite sign convention)."""
    if name == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        G = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
             for i in range(n)]
        return IntLattice(G, f"A{n}")
    if name == "D":
        if n < 0:
            raise ValueError("D_n needs n >= 0")
        # low-rank conventions: D0 = 0, D1 = [4], D2 = 2A1, D3 = A3
        if n == 0:
            return IntLattice([], "D0")
        if n == 1:
            return IntLattice([[4]], "D1")
        if n == 2:
            return IntLattice([[2, 0], [0, 2]], "D2")
        if n == 3:
            return IntLattice(standard_lattice("A", 3).gram, "D3")
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            G[i][i] = 2
        for i in range(n - 2):
            G[i][i + 1] = G[i + 1][i] = -1
        G[n - 3][n - 1] = G[n - 1][n - 3] = -1
        return IntLattice(G, f"D{n}")
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
        return IntLattice(G, f"E{n}")
    if name == "U":
        if n != 2:
            raise ValueError("U has rank 2")
        return IntLattice([[0, 1], [1, 0]], "U")
    if name == "V":
        if n < 0:
            raise ValueError("V_n needs n >= 0")
        return IntLattice(identity(n), f"V{n}")
    if name == "W":
        if n < 1:
            raise ValueError("W_n needs n >= 1")
        G = identity(n)
        G[n - 1][n - 1] = 0
        return IntLattice(G, f"W{n}")
    raise ValueError(f"unknown lattice family {name!r}")


def radical_and_quotient(L):
    """Split L as radical + complement; returns (radical basis cols, quotient).

    The quotient Gram is the form restricted to a saturated complement of
    the radical, hence nondegenerate.
    """
    G = L.gram_rows()
    n = L.rank
    K = integer_kernel(G)
    r = len(K[0]) if K and K[0] else 0
    if r == 0:
        return K, IntLattice(G, L.label)
    S, U, V = smith_normal_form(K)
    assert all(S[i][i] == 1 for i in range(r)), "kernel basis not saturated"
    Uinv = unimodular_inverse(U)
    comp = [[Uinv[i][j] for j in range(r, n)] for i in range(n)]
    Q = mat_mul(transpose(comp), mat_mul(G, comp))
    assert det(Q) != 0
    return K, IntLattice(Q, L.label)


def discriminant(L):
    """Discriminant group and form of L (computed on L modulo its radical)."""
    _, Lq = radical_and_quotient(L)
    G = Lq.gram_rows()
    n = Lq.rank
    if n == 0:
        return DiscriminantForm(AbelianInvariants(0, ()), (), ())
    S, U, V = smith_normal_form(G)
    divisors = [S[i][i] for i in range(n)]
    idx = [i for i, d in enumerate(divisors) if d > 1]
    Ginv = mat_inverse(G)
    Uinv = unimodular_inverse(U)
    # generator i of the group is the dual vector G^-1 U^-1 e_i
    B = mat_mul(transpose(Uinv), mat_mul(Ginv, Uinv))
    bil = tuple(
        tuple(Fraction(B[i][j]) % 1 for j in idx) for i in idx
    )
    quad = tuple(Fraction(B[i][i]) % 2 for i in idx) if Lq.is_even() else None
    inv = AbelianInvariants(0, tuple(divisors[i] for i in idx))
    assert inv.order == abs(det(G))
    return DiscriminantForm(inv, bil, quad)


def orthogonal_complement(L, v):
    """Saturated sublattice {x : x.v = 0}, with the restricted form."""
    if all(x == 0 for x in v):
        raise ValueError("v must be nonzero")
    G = L.gram_rows()
    w = exact.mat_vec(G, list(v))
    K = integer_kernel([w])
    Gc = mat_mul(transpose(K), mat_mul(G, K))
    return IntLattice(Gc)


def modified_form(L, f, c):
    """Gram'_ij = Gram_ij + c * f_i * f_j."""
    c = Fraction(c)
    G = L.gram_rows()
    n = L.rank
    assert len(f) == n
    return RatLattice(
        [[Fraction(G[i][j]) + c * f[i] * f[j] for j in range(n)] for i in range(n)]
    )


def content(f):
    g = 0
    for x in f:
        g = gcd(g, x)
    return g


def congruence_sublattice(L, f, m):
    """Sublattice {x : f.x = 0 mod m} of a rational lattice, restricted form.

    The restricted Gram must be integral; a non-integral result signals an
    inconsistent (form, functional, modulus) combination.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    n = L.rank
    assert len(f) == n
    if n == 0:
        return IntLattice([], None)
    if all(x == 0 for x in f) or m == 1:
        B = identity(n)
    else:
        # solutions of f.x - m*y = 0, projected to the x coordinates
        K = integer_kernel([list(f) + [-m]])
        B = exact.column_lattice_hnf([row for row in K[:n]])
    idx = m // gcd(m, content(f)) if any(f) else 1
    assert abs(det(B)) == idx
    Gr = mat_mul(transpose(B), mat_mul(L.gram_rows(), B))
    G = []
    for row in Gr:
        out = []
        for x in row:
            x = Fraction(x)
            if x.denominator != 1:
                raise ValueError("restricted form is not integral")
            out.append(int(x))
        G.append(out)
    return IntLattice(G)


# ---------------------------------------------------------------------------
# isometry testing (small positive definite lattices)


def _greedy_reduce(G):
    """Pairwise norm reduction; returns (G', T) with G' = T^t G T unimodular T."""
    n = len(G)
    G = mat_copy(G)
    T = identity(n)

    def colop(i, j, q):  # b_i += q * b_j
        for k in range(n):
            T[k][i] += q * T[k][j]
        for k in range(n):
            G[k][i] += q * G[k][j]
        for k in range(n):
            G[i][k] += q * G[j][k]

    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for i in range(n):
            for j in range(n):
                if i == j or G[j][j] == 0:
                    continue
                q = -round(Fraction(G[i][j], G[j][j]))
                if q and G[i][i] + 2 * q * G[i][j] + q * q * G[j][j] < G[i][i]:
                    colop(i, j, q)
                    changed = True
    return G, T


def short_vectors(G, bound):
    """All x != 0 with x^t G x <= bound, for positive definite G (both signs)."""
    n = len(G)
    if n == 0:
        return []
    q = [[Fraction(G[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert q[i][i] > 0
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    out = []
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            if any(x):
                out.append(list(x))
            return
        t = sum(q[i][j] * x[j] for j in range(i + 1, n))
        s = rem / q[i][i]
        r = isqrt(int(s)) + 2
        lo = -t - r
        hi = -t + r
        k = int(lo) - 1
        while k <= hi:
            val = q[i][i] * (k + t) ** 2
            if val <= rem:
                x[i] = k
                rec(i - 1, rem - val)
            k += 1
        x[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def is_isometric(L1, L2, witness=False):
    """Decide L1 ~= L2 (after radical removal, positive definite, small rank).

    With witness=True returns (flag, U) where G1' = U^t G2' U on the
    nondegenerate quotients; otherwise just the flag.
    """
    K1, Q1 = radical_and_quotient(L1)
    K2, Q2 = radical_and_quotient(L2)
    r1 = len(K1[0]) if K1 and K1[0] else 0
    r2 = len(K2[0]) if K2 and K2[0] else 0

    def result(flag, U=None):
        return (flag, U) if witness else flag

    if r1 != r2 or Q1.rank != Q2.rank:
        return result(False)
    n = Q1.rank
    if n == 0:
        return result(True, identity(0))
    if Q1.det() != Q2.det():
        return result(False)
    if not (Q1.is_positive_definite() and Q2.is_positive_definite()):
        raise ValueError("isometry testing supports definite lattices only")
    G1, T1 = _greedy_reduce(Q1.gram_rows())
    G2 = Q2.gram_rows()
    bound = max(G1[i][i] for i in range(n))
    vecs = short_vectors(G2, bound)
    by_norm = {}
    for v in vecs:
        norm = sum(v[i] * G2[i][j] * v[j] for i in range(n) for j in range(n))
        by_norm.setdefault(norm, []).append(v)
    cols = [None] * n
    gcols = [None] * n  # G2 * col, cached for pairing checks

    def place(i):
        if i == n:
            return True
        for v in by_norm.get(G1[i][i], ()):
            ok = True
            for j in range(i):
                if sum(v[a] * gcols[j][a] for a in range(n)) != G1[i][j]:
                    ok = False
                    break
            if ok:
                cols[i] = v
                gcols[i] = exact.mat_vec(G2, v)
                if place(i + 1):
                    return True
        return False

    if not place(0):
        return result(False)
    W = transpose(cols)  # images of the reduced basis of Q1
    # G1 = W^t G2 W and G1 = T1^t Gq1 T1, so U maps the original basis of Q1
    U = mat_mul(W, unimodular_inverse(T1))
    assert mat_eq(mat_mul(transpose(U), mat_mul(G2, U)), Q1.gram_rows())
    assert det(U) in (1, -1)
    return result(True, U)
