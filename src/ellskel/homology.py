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
form; `trivalent_invariants` is that path and the one trivalent analysis.
It also reads the fiber types and checks the rank identities of (k, t, g)
and the law det S = det T · |MW|², S the fiber root lattice; the law has
not been derived for labelled fibers.

`transcendental_lattice` takes the radical on every skeleton from the
fundamental cycles of the regions whose monodromy fixes a vector, and
checks that they span it.  On trivalent input they do (the paper's main
theorem), so a failed check raises and no kernel of the Gram matrix is
taken; on labelled input they need not, and the radical is then the
kernel of the Gram matrix.  The region cohomology reads the same lifts
through the region walk `skeletons.region_steps`.

Forms are kept as integer matrices scaled by 2 lcm(valencies) (6 on
trivalent input); `lattices.restrict` checks their restriction is integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import lcm, prod
from typing import NamedTuple

from .exact import (
    AbelianInvariants,
    cokernel_invariants,
    column_lattice_hnf,
    integer_kernel,
    kernel_and_cokernel,
    kernel_coordinates,
    shape,
    sparse_cokernel,
    sparse_transpose,
)
from .generalized import kernel_cycles
from .lattices import IntLattice, quotient_by, restrict
from .skeletons import (
    X,
    Y,
    fiber_types,
    genus,
    gl2_mul,
    region_steps,
)

# X^d and the polarized form's block -S X^d for d mod 3, where S is the
# symplectic Gram (a.b = 1), so -S = Y
_I = ((1, 0), (0, 1))
_XPOW = [gl2_mul(*[X] * d) for d in range(3)]
_NEG_SXD = [gl2_mul(Y, x) for x in _XPOW]


def _add_block(rows, r, c, blk):
    """Add blk to the sparse rows at (r, c), keeping only nonzeros."""
    for row, b in zip(rows[r:r + 2], blk):
        for j, x in enumerate(b, c):
            if x:
                row[j] = x = row.get(j, 0) + x
                if not x:
                    del row[j]


# the engine's 2x2 products repeat a few matrices
_block = lru_cache(maxsize=1024)(gl2_mul)


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
    gram = restrict(scaled_form(lsk)[0], K, form_scale(lsk))
    return HGamma(D, K, gram, coker.torsion)


def mordell_weil(hg):
    """Torsion of the cokernel of the relation matrix D, by two routes: the
    elimination of D in `h_gamma` and a separate one of its transpose."""
    t2 = sparse_cokernel(*sparse_transpose(hg.relations)).torsion
    if hg.torsion != t2:
        raise AssertionError(f"cokernel routes disagree: {hg.torsion} vs {t2}")
    return AbelianInvariants(0, hg.torsion)


def _edge_values(lsk, cycles):
    """The sparse edge values of end-coordinate cycles, an edge's value its
    smaller end's; raises unless the larger end carries its lift."""
    edge_at = [None] * lsk.n_ends  # (2e, 2a, 2b, lift onto b) for e = (a, b)
    for e, (a, b) in enumerate(lsk.edges):
        edge_at[a] = edge_at[b] = (2 * e, 2 * a, 2 * b, lsk.lifts[b])
    out = []
    for c in cycles:
        u = {}
        # an edge with both ends zero satisfies its relation
        touched = {edge_at[i // 2] for i in compress(range(len(c)), c)}
        for j, a, b, ((p, q), (r, s)) in touched:
            x, y = c[a], c[a + 1]
            if p * x + q * y != c[b] or r * x + s * y != c[b + 1]:
                raise AssertionError("cycle does not satisfy the relations")
            u[j], u[j + 1] = x, y
        out.append(u)
    return out


def _in_radical(G, x):
    """G x = 0 for the sparse x, summed over its nonzeros; G is symmetric,
    so its rows are its columns."""
    acc = [0] * len(G)
    for j, y in x.items():
        acc = [a + y * g for a, g in zip(acc, G[j])]
    return not any(acc)


def transcendental_lattice(lsk, hg):
    """(T, spans): H_Gamma's Gram matrix modulo its radical, and whether the
    region cycles of `kernel_cycles` span the radical up to finite index.

    The cycles must satisfy the relations.  When three checks prove that
    they span the whole radical (each lies in it, the span is saturated,
    the quotient is nondegenerate; without cycles, the Gram matrix is), the
    radical's basis is the column HNF of their kernel coordinates, which
    `integer_kernel` would give.  A failed check raises on a trivalent
    all-Y skeleton; on any other, the radical is the Gram matrix's kernel,
    and spans says whether each cycle lies in it and they have its rank.
    """
    try:
        coords = kernel_coordinates(hg.kernel, _edge_values(lsk, kernel_cycles(lsk)))
    except ValueError:
        raise AssertionError("cycle does not satisfy the relations") from None
    G = hg.gram
    in_radical = all(_in_radical(G, x) for x in coords)
    radical = column_lattice_hnf([[x.get(j, 0) for x in coords] for j in range(len(G))])
    try:
        if not in_radical:
            raise AssertionError("a region cycle is not in the radical")
        if radical:
            return quotient_by(G, radical), True
        T = IntLattice(G)
        if T.det() == 0:
            raise AssertionError("the form is degenerate, but no region cycle is")
        return T, True
    except AssertionError:
        if all(len(v) == 3 for v in lsk.vertices) and set(lsk.labels) <= {Y}:
            raise
    K = integer_kernel(G)
    T = quotient_by(G, K) if shape(K)[1] else IntLattice(G)
    return T, in_radical and shape(K)[1] == shape(radical)[1]


def region_cohomology(lsk, region):
    """Cohomology of a fiber neighbourhood boundary over one region.

    Returns the group invariants: the quotient of one H* copy per end of
    the region walk by the transport relations, each op lift folded into
    the -X step after it.  Its torsion is cross-checked against
    Coker(M^t - id) for the full boundary monodromy M.
    """
    walk = region_steps(lsk, region.cycle)
    steps = [_block(m2, m1) for (_, m1), (_, m2) in zip(walk, walk)]
    N = len(steps)  # boundary positions, one per end
    R = []
    for i, m in enumerate(steps):
        # m transports from position i to position i+1 (mod N); the row of
        # covector e_c is e_c at i+1 minus m^t e_c at i: (i, c') gets
        # -m[c][c'].  With N = 1 both blocks are the same two columns
        for c, (a, b) in enumerate(m):
            row = {2 * i: -a, 2 * i + 1: -b}
            to = 2 * ((i + 1) % N) + c
            row[to] = row.get(to, 0) + 1
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


def _surface_invariants(lsk, fibers, hg, T):
    """Numeric invariants from (k, t, g), cross-checked against H_Gamma.

    `fibers`, `hg` and T are one orientation's, from `trivalent_invariants`.
    T is nondegenerate, so the Gram matrix on H_Gamma has rank T.rank.
    """
    _, k, t = fibers
    g = genus(lsk)
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
        (inv.r == len(lsk.regions), "region count"),
        (kdim == 2 * k, "kernel rank"),
        (kdim - T.rank == inv.rank_ker, "radical rank"),
        (T.rank == inv.rank_T, "rank of T"),
    )
    for ok, what in checks:
        if not ok:
            raise AssertionError(f"{what} disagrees with (k, t, g) = {(k, t, g)}")
    return inv


class TrivalentInvariants(NamedTuple):
    """One oriented trivalent skeleton's analysis, every check passed."""

    hg: HGamma
    T: IntLattice
    mw: AbelianInvariants
    fibers: tuple  # (types, k, t), as `fiber_types` returns it
    surface: SurfaceInvariants


def trivalent_invariants(lsk):
    """The analysis of an oriented trivalent skeleton, given as its all-Y
    labelled skeleton.

    Checks: T is definite, the rank identities of `_surface_invariants`
    hold, and det S = det T · |MW|², where S is the fiber root lattice
    (Shioda and Nikulin's lattice extensions).
    """
    hg = h_gamma(lsk)
    T, _ = transcendental_lattice(lsk, hg)
    if T.rank and not T.is_positive_definite():
        raise AssertionError("transcendental lattice is not positive definite")
    mw = mordell_weil(hg)
    fibers = fiber_types(lsk)
    det_S = prod(ft.root_det for ft in fibers[0].values())
    if det_S != T.det() * mw.order ** 2:
        raise AssertionError(
            f"det S = {det_S} is not det T · |MW|² = {T.det()} · {mw.order}²")
    return TrivalentInvariants(hg, T, mw, fibers,
                               _surface_invariants(lsk, fibers, hg, T))
