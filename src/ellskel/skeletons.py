"""Trivalent ribbon graphs as permutation pairs, with SL(2,Z) monodromy.

A skeleton is a finite set of edge-ends E = {0..n-1} together with a free
involution `op` (the two ends of each edge) and a fixed-point-free
permutation `nx` all of whose cycles have length 3 (the cyclic end order
at each vertex).  An orientation picks a head end per edge.

Monodromy values live in SL(2,Z), acting on column vectors of the rank-2
module H = Za + Zb with the symplectic product a.b = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import lattices
from .exact import identity, mat_eq, mat_mul, mat_neg

X = ((-1, 1), (-1, 0))
XINV = ((0, -1), (1, -1))
Y = ((0, -1), (1, 0))
YINV = ((0, 1), (-1, 0))

A_VEC = (1, 0)
B_VEC = (0, 1)


def gl2_mul(*ms):
    out = identity(2)
    for m in ms:
        out = mat_mul(out, m)
    return [tuple(r) for r in out]


def gl2_apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def symplectic(u, v):
    return u[0] * v[1] - u[1] * v[0]


# the defining identities of the generators, checked once at import
assert mat_eq(gl2_mul(X, X, X), identity(2))
assert mat_eq(gl2_mul(Y, Y), mat_neg(identity(2)))
assert gl2_mul(X, Y) == [(1, 1), (0, 1)]
assert mat_eq(gl2_mul(X, XINV), identity(2))
# X cycles (a,b) -> (c,a) -> (b,c) with c = -a-b
assert gl2_apply(X, A_VEC) == (-1, -1)
assert gl2_apply(X, B_VEC) == (1, 0)


class SkeletonError(ValueError):
    pass


@dataclass(frozen=True)
class Skeleton:
    n_ends: int
    op: tuple
    nx: tuple

    def __post_init__(self):
        object.__setattr__(self, "op", tuple(self.op))
        object.__setattr__(self, "nx", tuple(self.nx))

    @property
    def nx_inv(self):
        inv = [0] * self.n_ends
        for i, j in enumerate(self.nx):
            inv[j] = i
        return tuple(inv)

    def validate(self):
        """Raises SkeletonError unless (op, nx) define a connected skeleton."""
        n = self.n_ends
        for name, p in (("op", self.op), ("nx", self.nx)):
            if sorted(p) != list(range(n)):
                raise SkeletonError(f"{name} is not a permutation of 0..{n - 1}")
        for i in range(n):
            if self.op[i] == i:
                raise SkeletonError(f"op has a fixed point at {i}")
            if self.op[self.op[i]] != i:
                raise SkeletonError("op is not an involution")
        for c in _orbits(self.nx, n):
            if len(c) != 3:
                raise SkeletonError(f"nx cycle {c} does not have length 3")
        if n and len(_connected_component(self, 0)) != n:
            raise SkeletonError("skeleton is not connected")

    @property
    def vertices(self):
        """nx orbits, each starting at its minimal end, ordered by that end."""
        return _orbits(self.nx, self.n_ends)

    @property
    def edges(self):
        """op orbits as sorted pairs, ordered by the smaller end."""
        return [(i, self.op[i]) for i in range(self.n_ends) if i < self.op[i]]

    @cached_property
    def _vertex_index(self):
        index = [0] * self.n_ends
        for i, v in enumerate(self.vertices):
            for end in v:
                index[end] = i
        return index

    def vertex_of(self, end):
        if not 0 <= end < self.n_ends:
            raise ValueError(f"no such end {end}")
        return self._vertex_index[end]

    def counts(self):
        return {
            "ends": self.n_ends,
            "vertices": self.n_ends // 3,
            "edges": self.n_ends // 2,
        }


def _orbits(perm, n):
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            c = [i]
            seen[i] = True
            j = perm[i]
            while j != i:
                seen[j] = True
                c.append(j)
                j = perm[j]
            out.append(tuple(c))
    return out


def _connected_component(sk, start):
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in (sk.op[i], sk.nx[i]):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


@dataclass(frozen=True)
class Orientation:
    """One head end per edge, aligned with Skeleton.edges order."""

    heads: tuple

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))

    def head_set(self):
        return frozenset(self.heads)

    def is_head(self, end):
        return end in self.head_set()


def default_orientation(sk):
    """Heads at the smaller end of each edge."""
    return Orientation(tuple(a for a, _ in sk.edges))


def reorient(sk, orientation, vertex_subset):
    """Flip every edge with exactly one end at a vertex of the subset."""
    vs = set(vertex_subset)
    flipped = []
    for (a, b), h in zip(sk.edges, orientation.heads):
        inside = (sk.vertex_of(a) in vs) + (sk.vertex_of(b) in vs)
        flipped.append((a + b - h) if inside == 1 else h)
    return Orientation(tuple(flipped))


def all_orientations(sk):
    for heads in product(*sk.edges):
        yield Orientation(heads)


def orientation_classes(sk):
    """The smallest orientation of each class modulo vertex flips, in order.

    Flipping a vertex subset S flips the edges of the cut of S, so a class
    is a coset of the GF(2) cut space: 2^(E-V+1) classes on a connected
    skeleton.  Order heads tuples lexicographically, edge 0 first.  The
    pivots of the cut space in that order are the edges of the greedy
    spanning forest (an edge whose ends are not yet joined by earlier
    edges), and the smallest vector of a coset is the one that is zero on
    every pivot.  So the class minima are the orientations with every
    forest edge headed at its smaller end, one per choice on the other
    edges.
    """
    root = list(range(len(sk.vertices)))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    choices = []
    for a, b in sk.edges:
        ra, rb = find(sk.vertex_of(a)), find(sk.vertex_of(b))
        if ra != rb:
            root[ra] = rb
            choices.append((a,))
        else:
            choices.append((a, b))
    for heads in product(*choices):
        yield Orientation(heads)


OP, NX, NX_INV = "op", "nx", "nx'"


@dataclass(frozen=True)
class Path:
    start: int
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        w = self.word
        for s in w:
            if s not in (OP, NX, NX_INV):
                raise ValueError(f"bad step {s!r}")
        for a, b in zip(w, w[1:]):
            if a == OP and b == OP:
                raise ValueError("word not reduced: op op")
            if a != OP and b != OP:
                raise ValueError("word not reduced: consecutive vertex steps")

    def ends(self, sk):
        """The visited end sequence (alpha_0, ..., alpha_r)."""
        seq = [self.start]
        nxi = sk.nx_inv
        for s in self.word:
            cur = seq[-1]
            seq.append(
                sk.op[cur] if s == OP else sk.nx[cur] if s == NX else nxi[cur]
            )
        return seq

    def is_loop(self, sk):
        seq = self.ends(sk)
        return len(self.word) % 2 == 0 and seq[-1] == seq[0]


def step_matrix(sk, orientation, step, end_from):
    """SL(2,Z) lift of one path step leaving `end_from`."""
    if step == NX:
        return gl2_mul(mat_neg(XINV))
    if step == NX_INV:
        return gl2_mul(mat_neg(X))
    arrive = sk.op[end_from]
    return (
        [tuple(r) for r in mat_neg(Y)]
        if orientation.is_head(arrive)
        else [tuple(r) for r in mat_neg(YINV)]
    )


def monodromy(sk, orientation, path):
    """Product m_r ... m_1 of the step lifts along the path."""
    seq = path.ends(sk)
    out = identity(2)
    for s, a in zip(path.word, seq):
        out = mat_mul(step_matrix(sk, orientation, s, a), out)
    return [tuple(r) for r in out]


def parallel_transport(sk, orientation, path, h0):
    """Chain ((alpha_i, h_i)) with h_i the stepwise transport of h0."""
    seq = path.ends(sk)
    chain = [(seq[0], tuple(h0))]
    h = tuple(h0)
    for s, a in zip(path.word, seq):
        h = gl2_apply(step_matrix(sk, orientation, s, a), h)
        chain.append((seq[len(chain)], h))
    return chain


def fundamental_cycle(sk, orientation, loop, h):
    """The closed chain of a monodromy-invariant vector, as a Z^{2n} vector."""
    if not loop.is_loop(sk):
        raise ValueError("path is not a loop")
    m = monodromy(sk, orientation, loop)
    if gl2_apply(m, tuple(h)) != tuple(h):
        raise ValueError("vector is not invariant under the loop monodromy")
    chain = parallel_transport(sk, orientation, loop, h)
    vec = [0] * (2 * sk.n_ends)
    for a, hv in chain[1:]:
        vec[2 * a] += hv[0]
        vec[2 * a + 1] += hv[1]
    return vec


@dataclass(frozen=True)
class Region:
    cycle: tuple  # orbit of nx^-1 . op, in traversal order

    @property
    def size(self):
        return len(self.cycle)

    def boundary_path(self):
        return Path(self.cycle[0], (OP, NX_INV) * self.size)


def regions(sk):
    nxi = sk.nx_inv
    f = tuple(nxi[sk.op[i]] for i in range(sk.n_ends))
    return [Region(c) for c in _orbits(f, sk.n_ends)]


def genus(sk):
    v = sk.n_ends // 3
    e = sk.n_ends // 2
    r = len(regions(sk))
    chi = v - e + r
    assert chi % 2 == 0
    return (2 - chi) // 2


@dataclass(frozen=True)
class FiberType:
    kind: str  # one of "A", "D"
    index: int  # p of A~p (0 encodes A~0*), q of D~q
    n_gon: int

    @property
    def name(self):
        if self.kind == "A":
            return "A~0*" if self.n_gon == 1 else f"A~{self.index}"
        return f"D~{self.index}"

    @property
    def milnor(self):
        return self.n_gon - 1 if self.kind == "A" else self.n_gon + 4

    @property
    def stable(self):
        return self.kind == "A"

    def root_lattice(self):
        if self.kind == "A":
            n = self.n_gon
            return (
                lattices.IntLattice([], "0")
                if n == 1
                else lattices.standard_lattice("A", n - 1)
            )
        return lattices.standard_lattice("D", self.n_gon + 4)


def region_sign(sk, orientation, region):
    """+1 or -1 in the boundary monodromy +-(XY)^n; asserts the shape."""
    n = region.size
    m = monodromy(sk, orientation, region.boundary_path())
    expect = [(1, n), (0, 1)]
    if mat_eq(m, expect):
        return 1
    assert mat_eq(m, mat_neg(expect)), f"boundary monodromy {m} not +-(XY)^n"
    return -1


def fiber_types(sk, orientation):
    """Per-region fiber type plus the (k, t) summary."""
    out = {}
    t = 0
    for reg in regions(sk):
        n = reg.size
        if region_sign(sk, orientation, reg) == 1:
            out[reg] = FiberType("A", max(n - 1, 0), n)
        else:
            out[reg] = FiberType("D", n + 4, n)
            t += 1
    k = sk.n_ends // 6
    assert (k + t) % 2 == 0, "k + t must be even"
    return out, k, t
