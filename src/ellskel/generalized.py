"""Labelled skeletons: extra fiber types and non-trivalent vertices.

Two extensions of the homology engine live here.  First, skeletons whose
edges carry arbitrary SL(2,Z) labels L, with edge relations
h_head + L h_tail = 0; loops and bigons labelled by powers of X encode
the additive/exceptional fiber types that a plain oriented skeleton
cannot express.  Second, vertices of any valency divisible by 3, with
vertex relations sum_i X^i h_i = 0 and the weighted intersection form
whose coefficient at depth d from an n-valent vertex is (n-d-1)/n; at
n = 3 this is the ordinary form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact import (
    AbelianInvariants,
    cokernel_invariants,
    identity,
    integer_kernel,
    mat_mul,
    solve_columns,
    transpose,
    zeros,
)
from .homology import _add_block, _restrict_scaled_form, saturate_columns
from .lattices import IntLattice, radical_and_quotient
from .skeletons import (
    NX_INV,
    OP,
    SkeletonError,
    X,
    Y,
    _connected_component,
    _orbits,
    gl2_apply,
    gl2_mul,
)

# -S * X^d blocks of the polarized form (S is the symplectic Gram)
_S = ((0, 1), (-1, 0))


def _neg_sxd(d):
    m = identity(2)
    for _ in range(d % 3):
        m = mat_mul(m, [list(r) for r in X])
    sm = mat_mul([list(r) for r in _S], m)
    return tuple(tuple(-x for x in r) for r in sm)


def inv2(m):
    """Inverse of a determinant-1 integer 2x2 matrix."""
    a, b = m[0]
    c, d = m[1]
    assert a * d - b * c == 1
    return ((d, -b), (-c, a))


XYX = tuple(tuple(r) for r in gl2_mul(X, Y, X))

E_LABELS = {
    "A0**": (tuple(tuple(r) for r in X),),
    "E6": (tuple(tuple(-x for x in r) for r in X),),
    "A1*": (tuple(tuple(-x for x in r) for r in XYX),),
    "E7": (XYX,),
    "A2*": None,  # two labels, variant required
    "E8": None,
}
_TWO_LABEL_KINDS = ("A2*", "E8")


def _e_labels(kind, variant):
    if kind in _TWO_LABEL_KINDS:
        if variant not in (0, 1):
            raise ValueError(f"kind {kind!r} needs an explicit variant 0 or 1")
        px = tuple(tuple(r) for r in X)
        nx_ = tuple(tuple(-x for x in r) for r in X)
        if kind == "A2*":
            return (px, px) if variant == 0 else (nx_, nx_)
        return (px, nx_) if variant == 0 else (nx_, px)
    if kind not in E_LABELS:
        raise ValueError(f"unknown fiber kind {kind!r}")
    if variant is not None:
        raise ValueError(f"kind {kind!r} takes no variant")
    return E_LABELS[kind]


@dataclass(frozen=True)
class LabelledSkeleton:
    n_ends: int
    op: tuple
    nx: tuple
    heads: tuple  # one end per edge, aligned with `edges`
    labels: tuple  # one 2x2 tuple per edge; the relation is h_head + L h_tail

    def __post_init__(self):
        object.__setattr__(self, "op", tuple(self.op))
        object.__setattr__(self, "nx", tuple(self.nx))
        object.__setattr__(self, "heads", tuple(self.heads))
        object.__setattr__(
            self, "labels", tuple(tuple(tuple(r) for r in L) for L in self.labels)
        )

    @property
    def edges(self):
        return [(i, self.op[i]) for i in range(self.n_ends) if i < self.op[i]]

    @property
    def vertices(self):
        return _orbits(self.nx, self.n_ends)

    @property
    def nx_inv(self):
        inv = [0] * self.n_ends
        for i, j in enumerate(self.nx):
            inv[j] = i
        return tuple(inv)

    def validate(self):
        n = self.n_ends
        for name, p in (("op", self.op), ("nx", self.nx)):
            if sorted(p) != list(range(n)):
                raise SkeletonError(f"{name} is not a permutation of 0..{n - 1}")
        for i in range(n):
            if self.op[i] == i:
                raise SkeletonError(f"op has a fixed point at {i}")
            if self.op[self.op[i]] != i:
                raise SkeletonError("op is not an involution")
        for c in self.vertices:
            if len(c) % 3 != 0 or len(c) == 0:
                raise SkeletonError(
                    f"vertex {c} has valency {len(c)}, not a multiple of 3"
                )
        edges = self.edges
        if len(self.heads) != len(edges) or len(self.labels) != len(edges):
            raise SkeletonError("heads/labels not aligned with edges")
        for (a, b), h, L in zip(edges, self.heads, self.labels):
            if h not in (a, b):
                raise SkeletonError(f"head {h} not an end of edge {(a, b)}")
            la, lb = L[0]
            lc, ld = L[1]
            if la * ld - lb * lc != 1:
                raise SkeletonError(f"label {L} has determinant != 1")
        if n and len(_connected_component(self, 0)) != n:
            raise SkeletonError("skeleton is not connected")

    def edge_index(self):
        return {e: i for i, e in enumerate(self.edges)}

    def label_at(self, end):
        """(L or L^-1, head?) for the edge containing `end`."""
        idx = self.edge_index()[tuple(sorted((end, self.op[end])))]
        return self.labels[idx], self.heads[idx]


def from_skeleton(sk, orientation):
    """Plain oriented trivalent skeleton as an all-Y labelled one."""
    y = tuple(tuple(r) for r in Y)
    return LabelledSkeleton(
        sk.n_ends, sk.op, sk.nx, orientation.heads, (y,) * len(sk.edges)
    )


def insert_E_fiber(lsk, edge_idx, kind, variant=None):
    """Subdivide a Y-labelled edge and attach the X-labelled structure.

    Single-label kinds hang a pendant vertex carrying a labelled loop off
    the subdivision point; two-label kinds replace the subdivision point
    with a bigon whose arcs carry the two labels.  The loop/arc heads are
    chosen so the new region's boundary monodromy is a power of X up to
    sign, never the identity.
    """
    labels = _e_labels(kind, variant)
    edges = lsk.edges
    if not 0 <= edge_idx < len(edges):
        raise ValueError(f"no edge {edge_idx}")
    a, b = edges[edge_idx]
    y = tuple(tuple(r) for r in Y)
    if lsk.labels[edge_idx] != y:
        raise ValueError("can only insert on a Y-labelled edge")
    h = lsk.heads[edge_idx]
    n0 = lsk.n_ends
    op = list(lsk.op)
    nxp = list(lsk.nx)
    edge_data = {
        e: (lsk.heads[i], lsk.labels[i]) for i, e in enumerate(edges) if i != edge_idx
    }
    if len(labels) == 1:
        # u = (p, s, r) subdivides (a, b); w = (w0, w1, w2) carries the loop
        p, s, r, w0, w1, w2 = range(n0, n0 + 6)
        op += [0] * 6
        nxp += [0] * 6
        for x_, y_ in ((p, s), (s, r), (r, p), (w0, w1), (w1, w2), (w2, w0)):
            nxp[x_] = y_
        for x_, y_ in ((a, p), (s, b), (r, w0), (w1, w2)):
            op[x_], op[y_] = y_, x_
        edge_data[tuple(sorted((a, p)))] = (a if h == a else p, y)
        edge_data[tuple(sorted((s, b)))] = (b if h == b else s, y)
        edge_data[tuple(sorted((r, w0)))] = (r, y)
        edge_data[(w1, w2)] = (w2, labels[0])
    else:
        # u = (p, c1, d1), v = (q, c2, d2); arcs (c1,d2) and (d1,c2) bound
        # the new bigon region {c1, c2}
        p, c1, d1, q, c2, d2 = range(n0, n0 + 6)
        op += [0] * 6
        nxp += [0] * 6
        for x_, y_ in ((p, c1), (c1, d1), (d1, p), (q, c2), (c2, d2), (d2, q)):
            nxp[x_] = y_
        for x_, y_ in ((a, p), (q, b), (c1, d2), (d1, c2)):
            op[x_], op[y_] = y_, x_
        edge_data[tuple(sorted((a, p)))] = (a if h == a else p, y)
        edge_data[tuple(sorted((q, b)))] = (b if h == b else q, y)
        edge_data[tuple(sorted((c1, d2)))] = (d2, labels[0])
        edge_data[tuple(sorted((d1, c2)))] = (d1, labels[1])
    out_edges = [(i, op[i]) for i in range(n0 + 6) if i < op[i]]
    heads = tuple(edge_data[e][0] for e in out_edges)
    labs = tuple(edge_data[e][1] for e in out_edges)
    out = LabelledSkeleton(n0 + 6, tuple(op), tuple(nxp), heads, labs)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# relations, form, invariants


def relation_matrix(lsk):
    """Vertex relations sum X^i h_i and edge relations h_head + L h_tail."""
    n = lsk.n_ends
    verts = lsk.vertices
    edges = lsk.edges
    nrows = 2 * len(verts) + 2 * len(edges)
    D = zeros(nrows, 2 * n)
    xpow = [identity(2), [list(r) for r in X], mat_mul([list(r) for r in X],
                                                       [list(r) for r in X])]
    for vi, v in enumerate(verts):
        for i, alpha in enumerate(v):
            _add_block(D, 2 * vi, 2 * alpha, xpow[i % 3])
    for ei, ((a, b), h, L) in enumerate(zip(edges, lsk.heads, lsk.labels)):
        t = a + b - h
        r = 2 * (len(verts) + ei)
        _add_block(D, r, 2 * h, identity(2))
        _add_block(D, r, 2 * t, L)
    return D


def form_scale(lsk):
    return 2 * lcm(*(len(v) for v in lsk.vertices))


def scaled_form(lsk):
    """scale * the weighted intersection form on the chain group."""
    n = lsk.n_ends
    scale = form_scale(lsk)
    F = zeros(2 * n, 2 * n)
    valency = {}
    for v in lsk.vertices:
        for alpha in v:
            valency[alpha] = len(v)
    for alpha in range(n):
        nv = valency[alpha]
        beta = alpha
        for d in range(1, nv - 1):
            beta = lsk.nx[beta]
            w = (scale // 2) * (nv - d - 1) // nv
            assert (scale // 2) * (nv - d - 1) % nv == 0
            if w == 0:
                continue
            blk = _neg_sxd(d)
            _add_block(F, 2 * alpha, 2 * beta, [[w * x for x in r] for r in blk])
            _add_block(
                F, 2 * beta, 2 * alpha,
                [[w * blk[j][i] for j in range(2)] for i in range(2)],
            )
    return F


def generalized_h_gamma(lsk):
    """Kernel basis of the relation matrix with its integral Gram."""
    D = relation_matrix(lsk)
    K = integer_kernel(D)
    return K, _restrict_scaled_form(K, scaled_form(lsk), form_scale(lsk))


def generalized_invariants(lsk):
    """(T, MW): definite quotient lattice and section-group torsion."""
    _, gram = generalized_h_gamma(lsk)
    _, T = radical_and_quotient(IntLattice(gram))
    D = relation_matrix(lsk)
    t1 = cokernel_invariants(D).torsion
    t2 = cokernel_invariants(transpose(D)).torsion
    if t1 != t2:
        raise AssertionError(f"cokernel routes disagree: {t1} vs {t2}")
    return T, AbelianInvariants(0, t1)


# ---------------------------------------------------------------------------
# monodromy on labelled skeletons


def step_matrix(lsk, step, end_from):
    if step == NX_INV:
        return tuple(tuple(-x for x in r) for r in X)
    if step != OP:
        # nx steps only make sense between consecutive ends of one vertex
        raise ValueError("labelled paths use op and nx' steps only")
    L, head = lsk.label_at(end_from)
    arrive = lsk.op[end_from]
    neg = lambda m: tuple(tuple(-x for x in r) for r in m)
    return neg(L) if arrive == head else neg(inv2(L))


def regions(lsk):
    nxi = lsk.nx_inv
    f = tuple(nxi[lsk.op[i]] for i in range(lsk.n_ends))
    return _orbits(f, lsk.n_ends)


def region_monodromy(lsk, cycle):
    out = identity(2)
    cur = cycle[0]
    for _ in range(len(cycle)):
        out = mat_mul([list(r) for r in step_matrix(lsk, OP, cur)], out)
        cur = lsk.nx_inv[lsk.op[cur]]
        out = mat_mul([list(r) for r in step_matrix(lsk, NX_INV, 0)], out)
    assert cur == cycle[0]
    return [tuple(r) for r in out]


def classify_monodromy(m):
    """('unipotent', sign, j) for +-[[1,j],[0,1]], else ('torsion', order).

    Any other monodromy (a hyperbolic one, say) raises SkeletonError.
    """
    for sign in (1, -1):
        if m[0][0] == sign and m[1] == (0, sign):
            return ("unipotent", sign, sign * m[0][1])
    p = [list(r) for r in m]
    acc = [list(r) for r in m]
    for order in range(1, 13):
        if acc == identity(2):
            return ("torsion", order)
        acc = mat_mul(acc, p)
    raise SkeletonError(f"monodromy {m} is neither unipotent nor small torsion")


def invariant_vector(m):
    """A primitive invariant vector of m, or None."""
    A = [[m[0][0] - 1, m[0][1]], [m[1][0], m[1][1] - 1]]
    K = integer_kernel(A)
    if not (K and K[0]):
        return None
    v = (K[0][0], K[1][0])
    assert gl2_apply(m, v) == v
    return v


def kernel_cycles(lsk):
    """Fundamental cycles of regions whose monodromy fixes a vector."""
    out = []
    for cycle in regions(lsk):
        m = region_monodromy(lsk, cycle)
        v = invariant_vector(m)
        if v is None or v == (0, 0):
            continue
        vec = [0] * (2 * lsk.n_ends)
        h = v
        cur = cycle[0]
        for _ in range(len(cycle)):
            h = gl2_apply(step_matrix(lsk, OP, cur), h)
            cur = lsk.op[cur]
            vec[2 * cur] += h[0]
            vec[2 * cur + 1] += h[1]
            h = gl2_apply(step_matrix(lsk, NX_INV, 0), h)
            cur = lsk.nx_inv[cur]
            vec[2 * cur] += h[0]
            vec[2 * cur + 1] += h[1]
        assert h == v and cur == cycle[0]
        out.append(vec)
    return out


def kernel_cycles_span_radical(lsk):
    """The invariant-vector region cycles saturate to the radical."""
    from .exact import column_lattice_hnf

    K, gram = generalized_h_gamma(lsk)
    cycles = kernel_cycles(lsk)
    R = integer_kernel(gram)
    ncols = len(K[0]) if K and K[0] else 0
    rad_rank = len(R[0]) if R and R[0] else 0
    if not cycles:
        return rad_rank == 0
    D = relation_matrix(lsk)
    for c in cycles:
        assert all(
            sum(x * y for x, y in zip(row, c)) == 0 for row in D
        ), "cycle does not satisfy the relations"
    coords = solve_columns(K, transpose(cycles))
    S = saturate_columns(coords)
    target = saturate_columns(R) if rad_rank else [[] for _ in range(ncols)]
    return column_lattice_hnf(S) == column_lattice_hnf(target)
