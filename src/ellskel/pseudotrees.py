"""Pseudo-trees: loop-decorated admissible trees and their lattice series.

A marked admissible tree (every vertex of valency 3 or 1, a chosen first
leaf) is encoded as a rooted binary tree with k-1 nodes; attaching a loop
at every leaf yields a genus-0 skeleton with 2k vertices, k+1 monogons
and one outer region.  This module enumerates the trees, builds the
skeletons, measures leaf distances, realizes the distance lattice Q_T
with its characteristic functional, performs the contraction to W_k, and
packages the four closed-form series (expected lattices, orientations,
braid words, abelianized fundamental groups).

`series_trees` is the one loop over the marked trees of a series, for
`verify_series` and `ellskel enumerate`, and can analyse one tree per
`surface_key`: one per plane tree and its mirror on th1.1 and th1.2, and
one per D5-rooted tree and its mirror on th1.3 and th1.4, since a surface
and its complex conjugate share T, MW and the fiber types.
`enumerate_marked_trees` stays a list because the benchmark's tracer
counts a run's trees by its length.

Binary trees are nested pairs: a node is (left, right) where each slot is
another node or None (a missing branch, i.e. a leaf of the admissible
tree); the whole tree is None when k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homology
from .exact import cokernel_invariants, mat_mul, sparse, transpose, zeros
from .generalized import from_skeleton
from .lattices import (
    IntLattice,
    congruence_sublattice,
    is_isometric,
    orthogonal_complement,
    restrict,
    standard_lattice,
)
from .skeletons import Orientation, Skeleton, genus, stable_loop_orientation


def enumerate_marked_trees(k):
    """All rooted binary trees with k-1 nodes, in deterministic order."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def gen(n):
        if n == 0:
            yield None
            return
        for i in range(n):
            for left in gen(i):
                for right in gen(n - 1 - i):
                    yield (left, right)

    return list(gen(k - 1))


@dataclass(frozen=True)
class Leaf:
    tree_end: int  # the end on the admissible tree
    loop_tail: int  # nx(tree_end), tail of the loop in the stable convention
    loop_head: int  # nx(loop_tail)


def tree_to_skeleton(tree):
    """Skeleton of the pseudo-tree, plus its leaves in construction order.

    End layout per vertex: three consecutive indices forming an nx cycle.
    The first leaf created is the marked leaf v1 (ends 0, 1, 2).
    """
    nx_pairs = []
    op_pairs = []
    leaves = []
    counter = [0]

    def fresh3():
        e = counter[0]
        counter[0] += 3
        nx_pairs.extend([(e, e + 1), (e + 1, e + 2), (e + 2, e)])
        return e, e + 1, e + 2

    def make_leaf():
        t, l1, l2 = fresh3()
        op_pairs.append((l1, l2))
        leaves.append(Leaf(t, l1, l2))
        return t

    def make(node):
        if node is None:
            return make_leaf()
        p, lft, rgt = fresh3()
        op_pairs.append((lft, make(node[0])))
        op_pairs.append((rgt, make(node[1])))
        return p

    root_leaf = make_leaf()
    op_pairs.append((root_leaf, make(tree)))
    n = counter[0]
    nx = [0] * n
    for a, b in nx_pairs:
        nx[a] = b
    op = [0] * n
    for a, b in op_pairs:
        op[a] = b
        op[b] = a
    sk = Skeleton(n, tuple(op), tuple(nx))
    sk.validate()
    if genus(sk) != 0:
        raise AssertionError("pseudo-tree skeleton is not planar")
    return sk, leaves


def outer_region(sk):
    outer = [r for r in sk.regions if r.size > 1]
    if len(outer) != 1:
        raise AssertionError(f"{len(outer)} regions of size > 1, expected 1")
    return outer[0]


def leaf_order(sk, leaves):
    """Leaves in boundary order v1..v_{k+1}, with m_i measured on the walk.

    Walking the outer region, each leaf appears as the adjacent pair
    (loop_head, tree_end); the vertex distance m_i counts the ends visited
    from the tree_end of v_i up to the loop_head of v_{i+1}, inclusive.
    """
    cycle = outer_region(sk).cycle
    pos = {e: i for i, e in enumerate(cycle)}
    N = len(cycle)
    for lf in leaves:
        if pos[lf.tree_end] != (pos[lf.loop_head] + 1) % N:
            raise AssertionError(f"leaf {lf} is not a boundary pair")
    first = next(lf for lf in leaves if lf.tree_end == 0)
    ordered = sorted(
        leaves, key=lambda lf: (pos[lf.tree_end] - pos[first.tree_end]) % N
    )
    dists = []
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        dists.append((pos[b.loop_head] - pos[a.tree_end]) % N + 1)
    if sum(dists) != N:
        raise AssertionError(f"leaf distances {dists} do not sum to {N}")
    return ordered, tuple(dists)


def leaf_distances(tree):
    """(m_1..m_k) and the suffix sums (n_1..n_k)."""
    sk, leaves = tree_to_skeleton(tree)
    _, dists = leaf_order(sk, leaves)
    m = dists[:-1]  # drop the closing distance v_{k+1} -> v_1
    n = []
    acc = 0
    for x in reversed(m):
        acc += x
        n.append(acc)
    return m, tuple(reversed(n))


def q_lattice_and_chi(tree):
    """The distance lattice Q_T and the functional chi = sum m_i q_i*."""
    m, _ = leaf_distances(tree)
    k = len(m)
    G = zeros(k, k)
    for i in range(k):
        G[i][i] = m[i] - 2
        if i + 1 < k:
            G[i][i + 1] = G[i + 1][i] = 1
    return IntLattice(G), list(m)


class ContractionError(RuntimeError):
    pass


def contract(tree):
    """Unimodular U with U^t Gram(Q_T) U = Gram(W_k), toward the last leaf.

    Returns (U, chi_bar, psi_bar): the images of chi and psi = chi - 2q_k*
    in the W_k* coordinates given by the columns of U.
    """
    Q, m = q_lattice_and_chi(tree)
    k = Q.rank
    # flip even generators so consecutive products become -1
    vecs = []
    for i in range(k):
        v = [0] * k
        v[i] = -1 if (i + 1) % 2 == 0 else 1
        vecs.append(v)
    weights = [mi - 2 for mi in m]
    split = []
    while len(weights) > 1:
        i = next(
            (j for j in range(len(weights) - 1) if weights[j] == 1), None
        )
        if i is None:
            raise ContractionError("no removable leaf pair before the last")
        g = vecs[i]
        if i > 0:
            vecs[i - 1] = [a + b for a, b in zip(vecs[i - 1], g)]
            weights[i - 1] -= 1
        if i + 1 < len(weights):
            vecs[i + 1] = [a + b for a, b in zip(vecs[i + 1], g)]
            weights[i + 1] -= 1
        split.append(g)
        del vecs[i]
        del weights[i]
    if weights != [0]:
        raise ContractionError(f"terminal weight {weights} != 0")
    U = transpose(split + vecs)
    W = standard_lattice("W", k)
    if restrict(sparse(Q.gram)[0], U) != W.gram_rows():
        raise AssertionError("contraction did not reach W_k")
    chi = m
    psi = list(m)
    psi[k - 1] -= 2
    chi_bar = [sum(c * u for c, u in zip(chi, col)) for col in split + vecs]
    psi_bar = [sum(c * u for c, u in zip(psi, col)) for col in split + vecs]
    return U, tuple(chi_bar), tuple(psi_bar)


# ---------------------------------------------------------------------------
# the four series

SERIES = ("th1.1", "th1.2", "th1.3", "th1.4")


def series_k(series, s):
    if series in ("th1.1", "th1.3"):
        return 2 * s
    return 2 * s - 1


def series_has_D5(series):
    return series in ("th1.3", "th1.4")


def orientation_for_series(sk, leaves, series):
    """The stable-loop orientation; for the D5 series the loop at the last
    leaf is reversed."""
    ordered, _ = leaf_order(sk, leaves)
    return _series_orientation(sk, ordered, series)


def _series_orientation(sk, ordered, series):
    heads = stable_loop_orientation(sk).heads
    if series_has_D5(series):
        lf = ordered[-1]
        heads = tuple(lf.loop_tail if h == lf.loop_head else h for h in heads)
    return Orientation(heads)


def surface_key(tree, series):
    """Two marked trees of the series with one key are one surface Γ_X or
    its complex conjugate, up to renumbering the ends and flipping
    vertices; both have isometric T, the same MW and the same fibers.

    The key is the smaller of two preorder words (a node 1, a leaf 0): the
    tree's word, whose node lists its children in cyclic order after the
    edge it is entered by, as `tree_to_skeleton` lays them out, and the
    mirror word, which lists them in reverse cyclic order.  On th1.1 and
    th1.2 the minimum runs over the rootings at the k+1 leaves: a re-rooted
    tree is the same ribbon graph with its ends renumbered, and
    `stable_loop_orientation` heads the same loops.  On the D5 series the
    reversed loop sits at the leaf before the marked one in the boundary
    walk, which is `leaves[1]` below (the first leaf `add` reaches after
    the marked leaf 0), so the words are rooted there.

    The mirror word is the mirror skeleton (op, nx⁻¹, every head
    reversed).  J = [[0, 1], [1, 0]] has det −1, and J X J = X⁻¹,
    J Y J = Y⁻¹, so h ↦ J h carries each tripod relation
    h₁ + X h₂ + X² h₃, its ends read in nx⁻¹ order, and each reversed edge
    relation onto the original ones: the same H_Γ, the same cokernel and
    the same form up to the sign of S.  A stable loop of the mirror is
    headed at the original loop's tail, so stable loops stay stable and
    the D5 loop stays reversed.  Tree edges are bridges, so their heads
    only move within the flip class."""
    nbrs = [[]]  # neighbours in cyclic order; vertex 0 is the marked leaf

    def add(node, parent):
        v = len(nbrs)
        nbrs[parent].append(v)
        nbrs.append([parent])
        for child in node or ():
            add(child, v)

    def word(v, entry, m):  # m = 1 reads the mirror
        n, i = nbrs[v], nbrs[v].index(entry)
        if len(n) == 1:
            return "0"
        return "1" + word(n[i - 2 + m], v, m) + word(n[i - 1 - m], v, m)

    add(tree, 0)
    leaves = [v for v, n in enumerate(nbrs) if len(n) == 1]
    roots = leaves[1:2] if series_has_D5(series) else leaves
    return min(word(nbrs[r][0], r, m) for r in roots for m in (0, 1))


def series_trees(k, series, shared=False):
    """Every marked tree with k loops, oriented for the series, in order.

    Yields (index, first, skeleton, orientation, leaf distances m_1..m_{k+1},
    `homology.trivalent_invariants` result), each skeleton built and its
    outer region walked once.  With `shared`, a tree repeating the
    `surface_key` of tree `first` < index is not built: it yields four Nones.
    """
    firsts = {}
    for idx, tree in enumerate(enumerate_marked_trees(k)):
        first = firsts.setdefault(surface_key(tree, series), idx) if shared else idx
        if first != idx:
            yield idx, first, None, None, None, None
            continue
        sk, leaves = tree_to_skeleton(tree)
        ordered, dists = leaf_order(sk, leaves)
        o = _series_orientation(sk, ordered, series)
        inv = homology.trivalent_invariants(from_skeleton(sk, o))
        yield idx, first, sk, o, dists, inv


def expected_lattice(series, s):
    """The closed-form transcendental lattice of each series."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if series == "th1.1":
        f = [3] * s + [1] * (s - 1)
        if len(f) == 1:
            # rank-1 ambient, complement of (3) is 0
            return IntLattice([])
        return orthogonal_complement(standard_lattice("V", 2 * s - 1), f)
    if series == "th1.2":
        return standard_lattice("D", 2 * s - 2)
    if series == "th1.3":
        return standard_lattice("D", 2 * s - 1).direct_sum(IntLattice([[4]]))
    if series == "th1.4":
        n = 2 * s - 2
        f = [3] * (s - 1) + [1] * (s - 1)
        if n == 0:
            return IntLattice([])
        # the form I + f f^t / 4, scaled by 4 to stay integral
        V4 = IntLattice([[4 * (i == j) + fi * fj for j, fj in enumerate(f)]
                         for i, fi in enumerate(f)])
        return congruence_sublattice(V4, f, 4, 4)
    raise ValueError(f"unknown series {series!r}")


def expected_fiber_names(series, s):
    k = series_k(series, s)
    if series == "th1.1":
        return sorted([f"A~{5 * k - 2}"] + ["A~0*"] * (k + 1))
    if series == "th1.2":
        return sorted([f"D~{5 * k + 3}"] + ["A~0*"] * (k + 1))
    if series == "th1.3":
        return sorted([f"D~{5 * k + 3}", "D~5"] + ["A~0*"] * k)
    return sorted([f"A~{5 * k - 2}", "D~5"] + ["A~0*"] * k)


@dataclass(frozen=True)
class SeriesReport:
    series: str
    s: int
    results: tuple  # (tree index, lattice_ok, mw, mw_ok) per tree

    @property
    def ok(self):
        return all(l and m for _, l, _, m in self.results)


def verify_series(series, s):
    """Check T_X and MW for every marked tree of the series at level s.

    The lattice must match the closed form in every case.  The section
    group, whose order `trivalent_invariants` ties to the determinants by
    det S = det T · |MW|² (S the fiber root lattice), must be trivial
    except at s=1.  The trees of one `surface_key` share its first's row.
    """
    k = series_k(series, s)
    expect = expected_lattice(series, s)
    results = []
    rows = {}  # (lattice_ok, mw, mw_ok) of each analysed tree
    for idx, first, _, _, _, inv in series_trees(k, series, shared=True):
        if first == idx:
            names = sorted(ft.name for ft in inv.fibers[0].values())
            if names != expected_fiber_names(series, s):
                raise AssertionError(f"{series} s={s} tree {idx}: fibers {names}")
            rows[idx] = is_isometric(inv.T, expect), inv.mw, inv.mw.order == 1 or s == 1
        results.append((idx, *rows[first]))
    return SeriesReport(series, s, tuple(results))


# ---------------------------------------------------------------------------
# braid monodromy and abelianized fundamental groups

S1, S2 = 1, 2  # Artin generators; negative value = inverse


def braid_words(tree, series):
    """Monodromy words m_1..m_{k+1}, the n_i, eps, and the exponent k+t."""
    m, n = leaf_distances(tree)
    k = len(m)
    eps = 1 if series_has_D5(series) else 0
    words = []
    for ni in n:
        words.append([S1] * ni + [S2] + [-S1] * ni)
    words.append([S2] + [S1, S2] * (3 * eps))
    t = {"th1.1": 0, "th1.2": 1, "th1.3": 2, "th1.4": 1}[series]
    return words, list(n), eps, k + t


# abelianized Artin action: each generator conjugates one free generator
# into another, so the induced map on Z^3 is a transposition
_AB = {
    S1: ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    S2: ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
}


def _ab_action(word):
    out = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for g in word:
        out = mat_mul([list(r) for r in _AB[abs(g)]], out)
    return out


def pi1_abelianization(words, exponent):
    """Invariants of Z^3 modulo the abelianized braid relations."""
    rows = []
    for w in words:
        M = _ab_action(w)
        for j in range(3):
            rows.append([M[i][j] - (1 if i == j else 0) for i in range(3)])
    rows.append([exponent] * 3)
    return cokernel_invariants(rows)


def pi1_for_tree(tree, series):
    words, _, _, exponent = braid_words(tree, series)
    return pi1_abelianization(words, exponent)


def loose_end_count(tree):
    """Leaves sharing their node with an even number of other leaves."""
    sk, leaves = tree_to_skeleton(tree)
    if len(leaves) == 2:  # k = 1: two leaves joined by an edge, no nodes
        return 0
    node_of = {}
    for lf in leaves:
        node_of[lf] = sk.vertex_of(sk.op[lf.tree_end])
    count = 0
    for lf in leaves:
        siblings = sum(
            1 for other in leaves if other is not lf
            and node_of[other] == node_of[lf]
        )
        if siblings % 2 == 0:
            count += 1
    return count
