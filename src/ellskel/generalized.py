"""Labelled skeletons: extra fiber types and non-trivalent vertices.

A labelled skeleton is a `Skeleton` whose vertices may have any valency
divisible by 3 and whose edges carry SL(2,Z) labels L, with the edge
relation h_head + L h_tail = 0.  Loops and bigons labelled by powers of X
encode the additive/exceptional fiber types that a plain oriented
skeleton cannot express; `insert_E_fiber` splices them into an edge.  A
plain oriented trivalent skeleton is the all-Y labelled skeleton
`from_skeleton(sk, o)`, which is how it enters the homology engine in
`ellskel.homology` and the region walk in `ellskel.skeletons`.  Each
labelled skeleton keeps one table `lifts` of its op-step lifts, -L onto
the head of an edge labelled L and -L⁻¹ onto its tail, which that walk
and the engine read.  This module also classifies the region
monodromies and collects the fundamental cycles of the regions whose
monodromy fixes a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .skeletons import (
    NEG_X,
    Skeleton,
    SkeletonError,
    X,
    Y,
    check_heads,
    fundamental_cycle,
    gl2_apply,
    gl2_mul,
    region_monodromy,
)


def inv2(m):
    """Inverse of a determinant-1 integer 2x2 matrix."""
    a, b = m[0]
    c, d = m[1]
    if a * d - b * c != 1:
        raise AssertionError(f"{m} does not have determinant 1")
    return ((d, -b), (-c, a))


E_LABELS = {
    "A0**": (X,),
    "E6": (NEG_X,),
    "A1*": (gl2_mul(NEG_X, Y, X),),
    "E7": (gl2_mul(X, Y, X),),
    "A2*": None,  # two labels, variant required
    "E8": None,
}
_TWO_LABEL_KINDS = ("A2*", "E8")


def _e_labels(kind, variant):
    if kind in _TWO_LABEL_KINDS:
        if variant not in (0, 1):
            raise ValueError(f"kind {kind!r} needs an explicit variant 0 or 1")
        if kind == "A2*":
            return (X, X) if variant == 0 else (NEG_X, NEG_X)
        return (X, NEG_X) if variant == 0 else (NEG_X, X)
    if kind not in E_LABELS:
        raise ValueError(f"unknown fiber kind {kind!r}")
    if variant is not None:
        raise ValueError(f"kind {kind!r} takes no variant")
    return E_LABELS[kind]


@lru_cache(maxsize=256)
def _transport(L, to_head):
    """-L onto the head of an edge labelled L, -L^-1 onto its tail."""
    return tuple(tuple(-x for x in r) for r in (L if to_head else inv2(L)))


@dataclass(frozen=True)
class LabelledSkeleton(Skeleton):
    """A skeleton with vertex valencies divisible by 3 and labelled edges."""

    heads: tuple  # one end per edge, aligned with `edges`
    labels: tuple  # one 2x2 tuple per edge; the relation is h_head + L h_tail

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "heads", tuple(self.heads))
        object.__setattr__(self, "labels", tuple(map(gl2_mul, self.labels)))

    def _check_valency(self, c):
        if len(c) % 3 != 0:
            raise SkeletonError(
                f"vertex {c} has valency {len(c)}, not a multiple of 3"
            )

    def validate(self):
        super().validate()
        check_heads(self, self.heads)
        if len(self.labels) != len(self.edges):
            raise SkeletonError("labels not aligned with edges")
        for L in self.labels:
            (la, lb), (lc, ld) = L
            if la * ld - lb * lc != 1:
                raise SkeletonError(f"label {L} has determinant != 1")

    @cached_property
    def lifts(self):
        """The SL(2,Z) lift of the op step onto each end."""
        out = [None] * self.n_ends
        for (a, b), h, L in zip(self.edges, self.heads, self.labels):
            out[a] = _transport(L, a == h)
            out[b] = _transport(L, b == h)
        return tuple(out)

    @cached_property
    def monodromies(self):
        """The boundary monodromy of each region, keyed by the region in
        the order of `regions`."""
        return {r: region_monodromy(self, r.cycle) for r in self.regions}


def from_skeleton(sk, orientation):
    """Plain oriented trivalent skeleton as an all-Y labelled one."""
    return LabelledSkeleton(
        sk.n_ends, sk.op, sk.nx, orientation.heads, (Y,) * len(sk.edges)
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
    if lsk.labels[edge_idx] != Y:
        raise ValueError("can only insert on a Y-labelled edge")
    h = lsk.heads[edge_idx]
    n0 = lsk.n_ends
    # vertices u = (u0 u1 u2) and v = (v0 v1 v2); (a, b) becomes (a, u0)
    # and (x, b), and the gadget's edges are (end, end, head, label)
    u0, u1, u2, v0, v1, v2 = range(n0, n0 + 6)
    if len(labels) == 1:  # v hangs off u by (u2, v0) and carries the loop
        x, gadget = u1, ((u2, v0, u2, Y), (v1, v2, v2, labels[0]))
    else:  # the arcs bound the new bigon region {u1, v1}
        x, gadget = v0, ((u1, v2, v2, labels[0]), (u2, v1, u2, labels[1]))
    op = list(lsk.op) + [0] * 6
    nxp = list(lsk.nx) + [u1, u2, u0, v1, v2, v0]
    edge_data = {
        e: (head, L) for e, head, L in zip(edges, lsk.heads, lsk.labels) if e != (a, b)
    }
    for p, q, head, L in ((a, u0, a if h == a else u0, Y),
                          (x, b, b if h == b else x, Y), *gadget):
        op[p], op[q] = q, p
        edge_data[tuple(sorted((p, q)))] = (head, L)
    out_edges = [(i, op[i]) for i in range(n0 + 6) if i < op[i]]
    heads = tuple(edge_data[e][0] for e in out_edges)
    labs = tuple(edge_data[e][1] for e in out_edges)
    out = LabelledSkeleton(n0 + 6, tuple(op), tuple(nxp), heads, labs)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# region monodromies on labelled skeletons


def parabolic_conjugator(m, sign):
    """(P, j) with P in SL(2,Z) and P^-1 m P = sign * [[1, j], [0, 1]].

    m has trace 2 * sign, so N = sign * m - id is nilpotent: N = j u w^t
    with u = (a, c) primitive, w = (-c, a), and any P with first column u
    conjugates m to the normal form.  Then |j| is the content of N and its
    sign is that of N[0][1] - N[1][0] = j (a^2 + c^2).
    """
    N = [[sign * m[i][k] - (i == k) for k in range(2)] for i in range(2)]
    content = gcd(*N[0], *N[1])
    if content == 0:
        return ((1, 0), (0, 1)), 0
    j = content if N[0][1] > N[1][0] else -content
    col = (N[0][1], N[1][1]) if N[0][1] or N[1][1] else (N[0][0], N[1][0])
    g = gcd(*col)
    a, c = col[0] // g, col[1] // g
    # extended Euclid: x a + y c = 1, so P = [[a, -y], [c, x]] has det 1
    x, y, r0, r1, x1, y1 = 1, 0, a, c, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, x, x1, y, y1 = r1, r0 - q * r1, x1, x - q * x1, y1, y - q * y1
    if r0 < 0:
        x, y = -x, -y
    P = ((a, -y), (c, x))
    if gl2_mul(inv2(P), m, P) != ((sign, sign * j), (0, sign)):
        raise AssertionError(f"{m} is not conjugate to {sign}*[[1, {j}], [0, 1]]")
    return P, j


def classify_monodromy(m):
    """('unipotent', sign, j) for a conjugate of +-[[1,j],[0,1]], else
    ('torsion', order).

    A monodromy of trace 2 * sign is conjugate in SL(2,Z) to
    sign * [[1, j], [0, 1]] for exactly one j (`parabolic_conjugator`).
    Any other monodromy of infinite order (a hyperbolic one, say) raises
    SkeletonError.
    """
    trace = m[0][0] + m[1][1]
    if abs(trace) == 2:
        sign = trace // 2
        return ("unipotent", sign, parabolic_conjugator(m, sign)[1])
    acc = gl2_mul(m)
    for order in range(1, 13):
        if acc == ((1, 0), (0, 1)):
            return ("torsion", order)
        acc = gl2_mul(acc, m)
    raise SkeletonError(f"monodromy {m} is neither unipotent nor small torsion")


def invariant_vector(m):
    """A primitive invariant vector of m, or None: the kernel of m - I as
    `integer_kernel` gives it, with its first nonzero entry positive, and
    (1, 0) for m = I."""
    (a, b), (c, d) = (m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1)
    if a * d != b * c:
        return None
    if a == b == 0:
        a, b = c, d  # a nonzero row of m - I, or none at all
    g = gcd(a, b)
    v = (b // g, -a // g) if g else (1, 0)
    if v[0] < 0 or v[0] == 0 and v[1] < 0:
        v = (-v[0], -v[1])
    if gl2_apply(m, v) != v:
        raise AssertionError(f"{v} is not invariant under {m}")
    return v


def kernel_cycles(lsk):
    """Fundamental cycles of regions whose monodromy fixes a vector."""
    out = []
    for region, m in lsk.monodromies.items():
        v = invariant_vector(m)
        if v is not None:
            out.append(fundamental_cycle(lsk, region.cycle, v))
    return out
