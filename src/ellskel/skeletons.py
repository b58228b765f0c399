"""Trivalent ribbon graphs as permutation pairs, with SL(2,Z) monodromy.

A skeleton is a finite set of edge-ends E = {0..n-1} together with a free
involution `op` (the two ends of each edge) and a fixed-point-free
permutation `nx` all of whose cycles have length 3 (the cyclic end order
at each vertex).  An orientation picks a head end per edge.

Monodromy values live in SL(2,Z), acting on column vectors of the rank-2
module H = Za + Zb with the symplectic product a.b = 1.  The transport
around a region is one walk, `region_steps`, on a labelled skeleton
(`ellskel.generalized`; an oriented skeleton is its all-Y one): each op
step is lifted by the skeleton's per-end table `lifts`, each nx⁻¹ step
by -X.  The region monodromy, the fundamental cycles and the fiber types
all read that walk.  A skeleton keeps its `regions`, and a labelled one
its `monodromies`, so each region's monodromy is walked once.  A 2x2
matrix is a tuple of row tuples, which `gl2_mul` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

X = ((-1, 1), (-1, 0))
Y = ((0, -1), (1, 0))
NEG_X = ((1, -1), (1, 0))  # the lift of an nx⁻¹ step


def gl2_mul(*ms):
    """The product m_1 m_2 ... of 2x2 matrices as a tuple of row tuples
    (for one matrix, its tuple form)."""
    a, b, c, d = 1, 0, 0, 1
    for (p, q), (r, t) in ms:
        a, b, c, d = a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t
    return ((a, b), (c, d))


def gl2_apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


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

    @cached_property
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
        for c in self.vertices:
            self._check_valency(c)
        if n and len(_connected_component(self, 0)) != n:
            raise SkeletonError("skeleton is not connected")

    def _check_valency(self, c):
        if len(c) != 3:
            raise SkeletonError(f"nx cycle {c} does not have length 3")

    @cached_property
    def vertices(self):
        """nx orbits, each starting at its minimal end, ordered by that end."""
        return tuple(_orbits(self.nx, self.n_ends))

    @cached_property
    def edges(self):
        """op orbits as sorted pairs, ordered by the smaller end."""
        return tuple((i, self.op[i]) for i in range(self.n_ends) if i < self.op[i])

    @cached_property
    def _vertex_index(self):
        index = [0] * self.n_ends
        for i, v in enumerate(self.vertices):
            for end in v:
                index[end] = i
        return index

    @cached_property
    def regions(self):
        """The orbits of nx⁻¹ ∘ op, each starting at its minimal end."""
        nxi = self.nx_inv
        f = tuple(nxi[self.op[i]] for i in range(self.n_ends))
        return tuple(Region(c) for c in _orbits(f, self.n_ends))

    def vertex_of(self, end):
        if not 0 <= end < self.n_ends:
            raise ValueError(f"no such end {end}")
        return self._vertex_index[end]

    def counts(self):
        return {
            "ends": self.n_ends,
            "vertices": len(self.vertices),
            "edges": len(self.edges),
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


def check_heads(sk, heads):
    """Raises SkeletonError unless heads holds one end of each edge of sk,
    in the order of `edges`."""
    edges = sk.edges
    if len(heads) != len(edges):
        raise SkeletonError(f"{len(heads)} heads for {len(edges)} edges")
    for (a, b), h in zip(edges, heads):
        if h not in (a, b):
            raise SkeletonError(f"head {h} is not an end of edge {(a, b)}")


def stable_loop_orientation(sk):
    """The stable-loop orientation of a loop-decorated tree (genus 0, k+1
    monogons and one more region), else None: each loop is headed at the
    end its monogon's op step reaches, so the loop fiber is stable, and
    every other edge at its smaller end."""
    if genus(sk) != 0:
        return None
    rs = sk.regions
    monogons = [r for r in rs if r.size == 1]
    k = sk.n_ends // 6
    if len(monogons) != k + 1 or len(rs) != k + 2:
        return None
    loop_heads = {sk.op[r.cycle[0]] for r in monogons}
    return Orientation(tuple(b if b in loop_heads else a for a, b in sk.edges))


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


@dataclass(frozen=True)
class Region:
    cycle: tuple  # orbit of nx^-1 . op, in traversal order

    @property
    def size(self):
        return len(self.cycle)


def region_steps(lsk, cycle):
    """The 2n steps around the region with boundary `cycle`, as (end
    reached, SL(2,Z) lift): from each end α of the cycle, op onto op[α],
    lifted by `lsk.lifts`, then nx⁻¹ onto the next end of the cycle,
    lifted by -X."""
    lifts, op, nxi = lsk.lifts, lsk.op, lsk.nx_inv
    for a in cycle:
        b = op[a]
        yield b, lifts[b]
        yield nxi[b], NEG_X


def region_monodromy(lsk, cycle):
    """Product m_2n ... m_1 of the step lifts around the region."""
    return gl2_mul(*[m for _, m in region_steps(lsk, cycle)][::-1])


def fundamental_cycle(lsk, cycle, h):
    """The closed chain of a vector h that the region's monodromy fixes, as
    a Z^{2n} vector: the stepwise transport of h, added at each end the walk
    reaches.  Raises ValueError if the transport does not return to h."""
    h = tuple(h)
    vec = [0] * (2 * lsk.n_ends)
    v = h
    for end, m in region_steps(lsk, cycle):
        v = gl2_apply(m, v)
        vec[2 * end] += v[0]
        vec[2 * end + 1] += v[1]
    if v != h:
        raise ValueError("vector is not invariant under the region monodromy")
    return vec


def genus(sk):
    v = sk.n_ends // 3
    e = sk.n_ends // 2
    r = len(sk.regions)
    chi = v - e + r
    if chi % 2:
        raise AssertionError(f"Euler characteristic {chi} is odd")
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
    def root_det(self):
        """det of the root lattice: A_(n-1) for an n-gon A fiber (the zero
        lattice for A~0*), D_(n+4) for a D fiber; det A_n = n + 1 and
        det D_n = 4 (Conway & Sloane, SPLAG, ch. 4)."""
        return self.n_gon if self.kind == "A" else 4


def fiber_types(lsk):
    """Per-region fiber type plus the (k, t) summary of a trivalent labelled
    skeleton with all labels Y (`generalized.from_skeleton`).  A region of
    size n has boundary monodromy +-(XY)^n = +-[[1, n], [0, 1]]: a stable
    A fiber for +, a D fiber for -."""
    out = {}
    t = 0
    for reg, m in lsk.monodromies.items():
        n = reg.size
        if m == ((1, n), (0, 1)):
            out[reg] = FiberType("A", max(n - 1, 0), n)
        elif m == ((-1, -n), (0, -1)):
            out[reg] = FiberType("D", n + 4, n)
            t += 1
        else:
            raise AssertionError(f"boundary monodromy {m} not +-(XY)^n")
    k = lsk.n_ends // 6
    if (k + t) % 2:
        raise AssertionError("k + t must be even")
    return out, k, t
