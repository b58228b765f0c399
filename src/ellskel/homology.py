"""The homology engine of labelled skeletons.

Relations: one vertex relation sum_i X^i h_i = 0 per vertex, its ends
taken in nx order from the smallest, on a value h_α in H per edge-end α,
and one edge relation h_head + L h_tail = 0 per edge.  The edge relations
are solved when the matrices are built: the chain group is C = ⊕_e H,
one rank-2 summand per edge (coordinates 2e, 2e+1) holding u_e, the value
at its smaller end; the other end carries M u_e, where M is its op-step
lift in the skeleton's table `lifts`: -L at a head and -L⁻¹ at a tail.
D is the vertex rows, each end contributing X^i M, and the form is
Φ^t F Φ, where Φ maps edge values to end values.  The larger ends'
columns are fixed by columns to their left, so they hold no Hermite
pivot: the canonical kernel on end values is Φ times that of D, with the
same Gram, and the edge rows are unimodular block pivots, so the
cokernel is the same.  The kernel H_Gamma carries the weighted
intersection form, whose coefficient at depth d from an n-valent vertex
is (n-d-1)/n; it yields the transcendental lattice (quotient by the
radical), and the cokernel of D yields the Mordell-Weil torsion.

A plain oriented trivalent skeleton enters as the all-Y labelled skeleton
`generalized.from_skeleton(sk, o)`, where the vertex relation is the
tripod relation h_m1 + X h_m2 + X² h_m3 = 0 and the form is the tripod
form; `trivalent_invariants` is that path.  There the radical is spanned
by the fundamental cycles of the regions whose monodromy fixes a vector
(`cycle_radical_and_quotient`), and no kernel of the Gram matrix is
taken; checks prove the span is the whole radical.  On labelled input
the cycles need not span it, so the radical is the kernel of the Gram
matrix (`transcendental_lattice`), and `kernel_cycles_span_radical`
reports whether the cycles span it up to finite index.  The region
cohomology reads the same lifts through the region walk
`skeletons.region_steps`.

Forms are kept as integer matrices scaled by 2 lcm(valencies) (6 on
trivalent input); restriction to the kernel must land in integers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import lcm
from typing import NamedTuple

from .exact import (
    AbelianInvariants,
    cokernel_invariants,
    column_lattice_hnf,
    kernel_and_cokernel,
    kernel_coordinates,
    sparse_cokernel,
    sparse_transpose,
)
from .generalized import kernel_cycles
from .lattices import IntLattice, quotient_by, radical_and_quotient
from .skeletons import (
    X,
    genus,
    gl2_apply,
    gl2_mul,
    region_steps,
)

# X^d and the polarized form's block -S X^d for d mod 3, where S is the
# symplectic Gram (a.b = 1)
_S = ((0, 1), (-1, 0))
_I = ((1, 0), (0, 1))
_XPOW = [tuple(gl2_mul(*[X] * d)) for d in range(3)]
_NEG_SXD = [[tuple(-x for x in r) for r in gl2_mul(_S, x)] for x in _XPOW]


def _add_block(rows, r, c, blk):
    """Add blk to the sparse rows at (r, c), keeping only nonzeros."""
    for row, b in zip(rows[r:r + 2], blk):
        for j, x in enumerate(b, c):
            if x:
                row[j] = x = row.get(j, 0) + x
                if not x:
                    del row[j]


@lru_cache(maxsize=1024)
def _block(A, B, C=_I):
    """The 2x2 product A B C."""
    return tuple(gl2_mul(A, B, C))


def _end_maps(lsk):
    """(e, M) per end: the end carries M u_e, where u_e is the value at the
    smaller end of its edge e (M = I there)."""
    out = [None] * lsk.n_ends
    for e, (a, b) in enumerate(lsk.edges):
        out[a] = (e, _I)
        out[b] = (e, lsk.lifts[b])
    return out


def relation_matrix(lsk):
    """The vertex relations sum X^i h_i in edge values, as the sparse matrix
    (rows, 2 * edges)."""
    ends = _end_maps(lsk)
    D = []
    for v in lsk.vertices:
        rows = [{}, {}]
        for i, alpha in enumerate(v):
            e, M = ends[alpha]
            _add_block(rows, 0, 2 * e, _block(_XPOW[i % 3], M))
        D += rows
    return D, 2 * len(lsk.edges)


def form_scale(lsk):
    return 2 * lcm(*(len(v) for v in lsk.vertices))


def scaled_form(lsk):
    """scale * the weighted intersection form Φ^t F Φ on the chain group, as
    the sparse matrix (rows, 2 * edges).  A vertex lists its ends in nx
    order, so the end at depth d from v[i] is v[(i + d) % len(v)]; the pair
    adds M_a^t (-w S X^d) M_b to the block of their edges."""
    scale = form_scale(lsk)
    ends = _end_maps(lsk)
    F = [{} for _ in range(2 * len(lsk.edges))]
    for v in lsk.vertices:
        nv = len(v)
        for d in range(1, nv - 1):
            w, rest = divmod((scale // 2) * (nv - d - 1), nv)
            if rest:
                raise AssertionError(f"form weight at depth {d} is not integral")
            if w == 0:
                continue
            blk = tuple(tuple(w * x for x in r) for r in _NEG_SXD[d % 3])
            for i, alpha in enumerate(v):
                (ea, Ma), (eb, Mb) = ends[alpha], ends[v[(i + d) % nv]]
                b = _block(tuple(zip(*Ma)), blk, Mb)
                _add_block(F, 2 * ea, 2 * eb, b)
                _add_block(F, 2 * eb, 2 * ea, tuple(zip(*b)))
    return F, 2 * len(lsk.edges)


def _restrict_scaled_form(K, F, scale):
    """K^t F K / scale for a basis K (columns) and the sparse rows F,
    summed over the nonzeros."""
    d = len(K[0]) if K else 0
    Ks = [[(b, y) for b, y in enumerate(r) if y] for r in K]
    G = [[0] * d for _ in range(d)]
    for ki, row in zip(Ks, F):
        if not ki:
            continue
        fk = [0] * d  # row i of F*K
        for j, f in row.items():
            for b, y in Ks[j]:
                fk[b] += f * y
        fk = [(b, y) for b, y in enumerate(fk) if y]
        for a, x in ki:
            g = G[a]
            for b, y in fk:
                g[b] += x * y
    if any(x % scale for row in G for x in row):
        raise AssertionError("restricted form is not integral")
    out = [[x // scale for x in row] for row in G]
    if any(out[i][j] != out[j][i] for i in range(d) for j in range(i)):
        raise AssertionError("restricted form is not symmetric")
    return out


class HGamma(NamedTuple):
    """What one analysis builds once and every invariant reads."""

    relations: list  # sparse rows of the relation matrix
    kernel: list  # basis of its kernel H_Gamma, as columns
    gram: list  # the intersection form on that basis
    torsion: tuple  # torsion of its cokernel, from the same elimination


def h_gamma(lsk):
    """The relation matrix, its kernel basis, the Gram matrix on it and the
    cokernel torsion; the kernel and cokernel come from one elimination."""
    D, n = relation_matrix(lsk)
    K, coker = kernel_and_cokernel(D, n)
    gram = _restrict_scaled_form(K, scaled_form(lsk)[0], form_scale(lsk))
    return HGamma(D, K, gram, coker.torsion)


def transcendental_lattice(hg):
    """(radical basis columns, quotient T) of H_Gamma's Gram matrix, the
    radical taken as the kernel of the Gram matrix."""
    return radical_and_quotient(IntLattice(hg.gram))


def mordell_weil(hg):
    """Torsion of the cokernel of the relation matrix D, by two routes: the
    elimination of D in `h_gamma` and a separate one of its transpose."""
    t2 = sparse_cokernel(*sparse_transpose(hg.relations)).torsion
    if hg.torsion != t2:
        raise AssertionError(f"cokernel routes disagree: {hg.torsion} vs {t2}")
    return AbelianInvariants(0, hg.torsion)


def _edge_values(lsk, cycles):
    """The sparse edge values of end-coordinate cycles; an edge's value is
    its smaller end's."""
    edge_of = {a: e for e, (a, _) in enumerate(lsk.edges)}
    out = []
    for c in cycles:
        u = {}
        for i in compress(range(len(c)), c):
            a, t = divmod(i, 2)
            if a in edge_of:
                u[2 * edge_of[a] + t] = c[i]
        out.append(u)
    return out


def _in_radical(G, x):
    """G x = 0 for the sparse x, summed over its nonzeros; G is symmetric,
    so its rows are its columns."""
    acc = [0] * len(G)
    for j, y in x.items():
        acc = [a + y * g for a, g in zip(acc, G[j])]
    return not any(acc)


def cycle_radical_and_quotient(lsk, hg):
    """(radical basis columns, quotient T) of H_Gamma's Gram matrix, the
    radical spanned by the region cycles of `kernel_cycles`.

    The basis is the canonical column HNF of the cycles' kernel
    coordinates, as `integer_kernel` would give it.  Three checks prove
    that the span is the whole radical: each cycle lies in it, the span
    is saturated, and the quotient is nondegenerate (`quotient_by`).
    Without cycles the Gram matrix itself must be nondegenerate.
    """
    G = hg.gram
    coords = kernel_coordinates(hg.kernel, _edge_values(lsk, kernel_cycles(lsk)))
    if not all(_in_radical(G, x) for x in coords):
        raise AssertionError("a region cycle is not in the radical")
    d = len(G)
    radical = column_lattice_hnf([[x.get(j, 0) for x in coords] for j in range(d)])
    if radical:
        return radical, quotient_by(G, radical)
    T = IntLattice(G)
    if T.det() == 0:
        raise AssertionError("the form is degenerate, but no region cycle is")
    return [[] for _ in range(d)], T


def trivalent_invariants(lsk):
    """(H_Gamma, T, MW) of an oriented trivalent skeleton, given as its
    all-Y labelled skeleton; T is definite."""
    hg = h_gamma(lsk)
    _, T = cycle_radical_and_quotient(lsk, hg)
    if T.rank and not T.is_positive_definite():
        raise AssertionError("transcendental lattice is not positive definite")
    return hg, T, mordell_weil(hg)


def kernel_cycles_span_radical(lsk, hg, radical):
    """The invariant-vector region cycles span the radical over Q: their
    saturation is the radical.

    `radical` is the basis that `transcendental_lattice(hg)` returned.
    The cycles must satisfy the relations; they then span the radical up
    to finite index exactly when each lies in it and their kernel
    coordinates have its rank, read off the free rank of their cokernel.
    """
    cycles = kernel_cycles(lsk)
    values = _edge_values(lsk, cycles)
    columns = defaultdict(list)  # D by columns: D u sums over u's nonzeros
    for i, row in enumerate(hg.relations):
        for j, v in row.items():
            columns[j].append((i, v))
    for c, u in zip(cycles, values):
        # an edge with both ends zero satisfies its relation
        ends = {i // 2 for i in compress(range(len(c)), c)}
        edges = {(a, lsk.op[a]) if a < lsk.op[a] else (lsk.op[a], a) for a in ends}
        Du = defaultdict(int)
        for j, y in u.items():
            for i, v in columns[j]:
                Du[i] += v * y
        bad_edge = any(gl2_apply(lsk.lifts[b], (c[2 * a], c[2 * a + 1]))
                       != (c[2 * b], c[2 * b + 1]) for a, b in edges)
        if bad_edge or any(Du.values()):
            raise AssertionError("cycle does not satisfy the relations")
    coords = kernel_coordinates(hg.kernel, values)
    if not all(_in_radical(hg.gram, x) for x in coords):
        return False
    d = len(hg.gram)
    rank = d - sparse_cokernel(coords, d).free_rank
    return rank == (len(radical[0]) if radical else 0)


def region_cohomology(lsk, region):
    """Cohomology of a fiber neighbourhood boundary over one region.

    Returns the group invariants: the quotient of one H* copy per boundary
    position of the region walk by the transport relations.  Its torsion
    is cross-checked against Coker(M^t - id) for the full boundary
    monodromy M.
    """
    steps = [m for _, m in region_steps(lsk, region.cycle)]
    N = len(steps)  # boundary positions
    R = []
    for i, m in enumerate(steps):
        # m transports from position i to position i+1 (mod N); the row of
        # covector e_c is e_c at i+1 minus m^t e_c at i: (i, c') gets
        # -m[c][c'].  N >= 2, so the two blocks never share a column
        for c, (a, b) in enumerate(m):
            row = {2 * ((i + 1) % N) + c: 1, 2 * i: -a, 2 * i + 1: -b}
            R.append({j: x for j, x in row.items() if x})
    inv = sparse_cokernel(R, 2 * N)
    M = lsk.monodromies[region]
    Mt_minus_id = [[M[j][i] - (i == j) for j in range(2)] for i in range(2)]
    side = cokernel_invariants(Mt_minus_id)
    if inv.torsion != side.torsion:
        raise AssertionError(f"region cohomology {inv} differs from {side}")
    return inv


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


def surface_invariants(sk, fibers, hg, T):
    """Numeric invariants from (k, t, g), cross-checked against H_Gamma.

    `fibers` is the `(types, k, t)` triple that `fiber_types` returned for
    the orientation `hg` was built with, and T is the quotient by the
    radical from `trivalent_invariants`.  T is nondegenerate, so the Gram
    matrix on H_Gamma has rank T.rank.
    """
    _, k, t = fibers
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
    K = hg.kernel
    kdim = len(K[0]) if K and K[0] else 0
    checks = (
        (inv.r == len(sk.regions), "region count"),
        (kdim == 2 * k, "kernel rank"),
        (kdim - T.rank == inv.rank_ker, "radical rank"),
        (T.rank == inv.rank_T, "rank of T"),
    )
    for ok, what in checks:
        if not ok:
            raise AssertionError(f"{what} disagrees with (k, t, g) = {(k, t, g)}")
    return inv
