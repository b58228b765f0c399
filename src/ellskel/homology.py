"""Homology engine for oriented skeletons.

The chain group is C = ⊕_α H, one rank-2 summand per edge-end (end α
occupies coordinates 2α, 2α+1).  Relations: one marked vertex relation
h_m1 + X h_m2 + X² h_m3 = 0 per vertex and one edge relation
h_head + Y h_tail = 0 per edge.  The kernel of the relation matrix,
equipped with the intersection form, yields the transcendental lattice
(quotient by the radical) and the Mordell-Weil torsion (cokernel data).

Forms are kept as integer matrices scaled by 6 (ambient form) or 2
(marked form); restriction to the kernel is asserted to land in integers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress

from . import skeletons
from .exact import (
    AbelianInvariants,
    cokernel_invariants,
    integer_kernel,
    rank,
    solve_columns,
    transpose,
    zeros,
)
from .lattices import IntLattice, radical_and_quotient
from .skeletons import X, fiber_types, genus, gl2_mul, monodromy, regions

# S is the symplectic Gram (a.b = 1); the form blocks below are -S*X and
# its transpose
_NEG_SX = ((1, 0), (-1, 1))
_NEG_SX_T = ((1, -1), (0, 1))

XSQ = gl2_mul(X, X)


def default_marking(sk):
    return tuple(v[0] for v in sk.vertices)


@dataclass(frozen=True)
class TripodComplex:
    boundary: tuple  # (10k x 12k) relation matrix rows
    form6: tuple  # 6 * ambient symmetric form on C
    marking: tuple

    def boundary_rows(self):
        return [list(r) for r in self.boundary]

    def form6_rows(self):
        return [list(r) for r in self.form6]


def _add_block(M, r, c, blk, sign=1):
    for i in range(2):
        for j in range(2):
            M[r + i][c + j] += sign * blk[i][j]


def boundary_matrix(sk, orientation, marking=None):
    """Relation matrix and ambient form of an oriented skeleton."""
    if marking is None:
        marking = default_marking(sk)
    n = sk.n_ends
    verts = sk.vertices
    assert len(marking) == len(verts)
    edges = sk.edges
    D = zeros(2 * len(verts) + 2 * len(edges), 2 * n)
    for vi, (v, m1) in enumerate(zip(verts, marking)):
        assert m1 in v, "marking must pick an end of its vertex"
        m2 = sk.nx[m1]
        m3 = sk.nx[m2]
        r = 2 * vi
        _add_block(D, r, 2 * m1, ((1, 0), (0, 1)))
        _add_block(D, r, 2 * m2, X)
        _add_block(D, r, 2 * m3, XSQ)
    heads = orientation.heads
    for ei, (a, b) in enumerate(edges):
        h = heads[ei]
        t = a + b - h
        r = 2 * (len(verts) + ei)
        _add_block(D, r, 2 * h, ((1, 0), (0, 1)))
        _add_block(D, r, 2 * t, skeletons.Y)
    F6 = zeros(2 * n, 2 * n)
    for a in range(n):
        b = sk.nx[a]
        _add_block(F6, 2 * a, 2 * b, _NEG_SX)
        _add_block(F6, 2 * b, 2 * a, _NEG_SX_T)
    return TripodComplex(
        tuple(tuple(r) for r in D), tuple(tuple(r) for r in F6), tuple(marking)
    )


def marked_form2(sk, marking):
    """2 * the marked form: -sum_v s(h_m1, X h_m2), polarized."""
    n = sk.n_ends
    F2 = zeros(2 * n, 2 * n)
    for v, m1 in zip(sk.vertices, marking):
        assert m1 in v
        m2 = sk.nx[m1]
        _add_block(F2, 2 * m1, 2 * m2, _NEG_SX)
        _add_block(F2, 2 * m2, 2 * m1, _NEG_SX_T)
    return F2


def _restrict_scaled_form(K, F, scale):
    """K^t F K / scale for a basis K (columns), summed over the nonzeros."""
    d = len(K[0]) if K else 0
    Ks = [[(b, y) for b, y in enumerate(r) if y] for r in K]
    G = [[0] * d for _ in range(d)]
    for ki, row in zip(Ks, F):
        if not ki:
            continue
        fk = defaultdict(int)  # row i of F*K
        for j in compress(range(len(row)), row):
            f = row[j]
            for b, y in Ks[j]:
                fk[b] += f * y
        for a, x in ki:
            g = G[a]
            for b, y in fk.items():
                g[b] += x * y
    out = []
    for row in G:
        r = []
        for x in row:
            if x % scale != 0:
                raise AssertionError("restricted form is not integral")
            r.append(x // scale)
        out.append(r)
    if any(out[i][j] != out[j][i] for i in range(d) for j in range(i)):
        raise AssertionError("restricted form is not symmetric")
    return out


def h_gamma(sk, orientation, marking=None):
    """Kernel basis (columns) of the relation matrix with its Gram matrix."""
    tc = boundary_matrix(sk, orientation, marking)
    K = integer_kernel(tc.boundary_rows())
    gram = _restrict_scaled_form(K, tc.form6_rows(), 6)
    return K, gram


def h_gamma_marked(sk, orientation, marking):
    """Same Gram computed from the marked form (cross-check route)."""
    tc = boundary_matrix(sk, orientation, marking)
    K = integer_kernel(tc.boundary_rows())
    gram = _restrict_scaled_form(K, marked_form2(sk, marking), 2)
    return K, gram


def transcendental_lattice(sk, orientation):
    """Positive definite quotient of H_Gamma by its radical."""
    _, gram = h_gamma(sk, orientation)
    _, Q = radical_and_quotient(IntLattice(gram))
    if Q.rank:
        assert Q.is_positive_definite()
    return Q


def mordell_weil(sk, orientation):
    """Torsion of the cokernel of the relation matrix, by two routes."""
    tc = boundary_matrix(sk, orientation)
    D = tc.boundary_rows()
    t1 = cokernel_invariants(D).torsion
    t2 = cokernel_invariants(transpose(D)).torsion
    if t1 != t2:
        raise AssertionError(f"cokernel routes disagree: {t1} vs {t2}")
    return AbelianInvariants(0, t1)


def kernel_cycles(sk, orientation):
    """Fundamental cycles of the stable regions, as Z^{2n} vectors."""
    out = []
    for reg in regions(sk):
        if skeletons.region_sign(sk, orientation, reg) == 1:
            # +(XY)^n fixes a = (1,0)
            out.append(
                skeletons.fundamental_cycle(
                    sk, orientation, reg.boundary_path(), skeletons.A_VEC
                )
            )
    return out


def saturate_columns(C):
    """Saturation of the column span inside the ambient free module."""
    m = len(C)
    cols = len(C[0]) if C and C[0] else 0
    if cols == 0:
        return [[] for _ in range(m)]
    N = integer_kernel(transpose(C))
    if not (N and N[0]):
        # full column span
        from .exact import identity

        return identity(m)
    return integer_kernel(transpose(N))


def _column_hnf_key(C):
    from .exact import column_lattice_hnf

    return column_lattice_hnf(C)


def kernel_cycles_span_radical(sk, orientation):
    """Check: the stable-region cycles saturate to the radical of H_Gamma."""
    K, gram = h_gamma(sk, orientation)
    cycles = kernel_cycles(sk, orientation)
    R = integer_kernel(gram)  # radical, in kernel-basis coordinates
    ncols = len(K[0]) if K and K[0] else 0
    if not cycles:
        return (len(R[0]) if R and R[0] else 0) == 0
    tc = boundary_matrix(sk, orientation)
    for c in cycles:
        assert all(x == 0 for x in exact_mat_vec(tc.boundary_rows(), c))
    coords = solve_columns(K, transpose(cycles))
    S = saturate_columns(coords)
    return _column_hnf_key(S) == _column_hnf_key(
        saturate_columns(R) if R and R[0] else [[] for _ in range(ncols)]
    )


def exact_mat_vec(M, v):
    return [sum(a * x for a, x in zip(row, v)) for row in M]


def region_cohomology(sk, orientation, region):
    """Cohomology of a fiber neighbourhood boundary over one region.

    Returns (group invariants, restriction matrix).  The group is the
    quotient of one H* copy per boundary position by the transport
    relations; its torsion is cross-checked against Coker(M^t - id) for
    the full boundary monodromy M.
    """
    n = region.size
    path = region.boundary_path()
    seq = path.ends(sk)
    steps = [
        skeletons.step_matrix(sk, orientation, s, a)
        for s, a in zip(path.word, seq)
    ]
    N = 2 * n  # boundary positions
    R = zeros(2 * N, 2 * N)
    for i in range(N):
        m = steps[i]  # transport from position i to position i+1 (mod N)
        j = (i + 1) % N
        # relation row for covector e_c: e_c at position j minus m^t e_c at
        # position i; the coefficient of generator (i, c') is -m[c][c']
        _add_block(R, 2 * i, 2 * j, ((1, 0), (0, 1)))
        _add_block(R, 2 * i, 2 * i, m, sign=-1)
    inv = cokernel_invariants(R)
    M = monodromy(sk, orientation, path)
    Mt_minus_id = [
        [M[j][i] - (1 if i == j else 0) for j in range(2)] for i in range(2)
    ]
    side = cokernel_invariants(Mt_minus_id)
    assert inv.torsion == side.torsion, (inv, side)
    res = zeros(2 * N, 2 * sk.n_ends)
    for i in range(N):
        a = seq[i]
        res[2 * i][2 * a] = 1
        res[2 * i + 1][2 * a + 1] = 1
    return inv, res


@dataclass(frozen=True)
class SurfaceInvariants:
    k: int
    t: int
    g: int
    r: int
    chi: int
    sigma_plus: int
    sigma_minus: int
    mu: int
    rank_T: int
    rank_ker: int


def surface_invariants(sk, orientation):
    """Numeric invariants from (k, t, g), cross-checked against the kernel."""
    _, k, t = fiber_types(sk, orientation)
    g = genus(sk)
    inv = SurfaceInvariants(
        k=k,
        t=t,
        g=g,
        r=k + 2 - 2 * g,
        chi=6 * (k + t),
        sigma_plus=k + t + 2 * g - 1,
        sigma_minus=5 * k + 5 * t + 2 * g - 1,
        mu=2 * g + 5 * k + 5 * t - 2,
        rank_T=k + t + 2 * g - 2,
        rank_ker=k - t + 2 - 2 * g,
    )
    assert inv.r == len(regions(sk))
    K, gram = h_gamma(sk, orientation)
    kdim = len(K[0]) if K and K[0] else 0
    assert kdim == 2 * k
    rank_gram = rank(gram)
    assert kdim - rank_gram == inv.rank_ker
    assert rank_gram == inv.rank_T
    return inv
