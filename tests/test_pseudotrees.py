import random
from math import gcd

import pytest

from ellskel import homology
from ellskel.generalized import from_skeleton
from ellskel.lattices import is_isometric
from ellskel.pseudotrees import (
    SERIES,
    braid_words,
    contract,
    enumerate_marked_trees,
    expected_fiber_names,
    expected_lattice,
    leaf_distances,
    leaf_order,
    loose_end_count,
    orientation_for_series,
    outer_region,
    pi1_abelianization,
    pi1_for_tree,
    q_lattice_and_chi,
    series_k,
    series_trees,
    surface_key,
    tree_to_skeleton,
    verify_series,
)
from ellskel.skeletons import Orientation, Skeleton, fiber_types, genus

from test_skeletons import PSEUDOTREE_K1, random_skeleton, root_lattice

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def tree_size(tree):
    """Number of binary-tree nodes: k - 1 for a tree with k loops."""
    if tree is None:
        return 0
    return 1 + tree_size(tree[0]) + tree_size(tree[1])


def test_tree_counts():
    for k in range(1, 8):
        trees = enumerate_marked_trees(k)
        assert len(trees) == CATALAN[k - 1]
        assert all(tree_size(t) == k - 1 for t in trees)
        assert len(set(trees)) == len(trees)


def test_k1_skeleton_matches_fixture():
    (tree,) = enumerate_marked_trees(1)
    sk, leaves = tree_to_skeleton(tree)
    assert sk == PSEUDOTREE_K1
    assert len(leaves) == 2
    assert leaves[0].tree_end == 0


def test_skeleton_shape():
    for k in range(1, 6):
        for tree in enumerate_marked_trees(k):
            sk, leaves = tree_to_skeleton(tree)
            assert sk.n_ends == 6 * k
            assert genus(sk) == 0
            assert len(leaves) == k + 1
            assert outer_region(sk).size == 5 * k - 1


def test_leaf_distances_small():
    assert leaf_distances(enumerate_marked_trees(1)[0]) == ((2,), (2,))
    (tree,) = enumerate_marked_trees(2)
    m, n = leaf_distances(tree)
    assert m == (3, 3)
    assert n == (6, 3)


def test_distance_cycle_sum_and_gcd():
    for k in range(1, 7):
        for tree in enumerate_marked_trees(k):
            sk, leaves = tree_to_skeleton(tree)
            ordered, dists = leaf_order(sk, leaves)
            assert len(ordered) == k + 1
            assert sum(dists) == 5 * k - 1
            m, n = leaf_distances(tree)
            assert dists[:-1] == m
            assert n[0] == sum(m)
            if k >= 3:
                g = 0
                for x in m:
                    g = gcd(g, x)
                assert g == 1


def test_figure_distance_vector_occurs():
    vecs = {leaf_distances(t)[0] for t in enumerate_marked_trees(5)}
    assert (5, 3, 4, 5, 3) in vecs


def test_loose_end_parity():
    for k in range(1, 7):
        for tree in enumerate_marked_trees(k):
            assert loose_end_count(tree) % 2 == (k + 1) % 2


def test_q_lattice():
    (tree,) = enumerate_marked_trees(2)
    Q, chi = q_lattice_and_chi(tree)
    assert Q.gram == ((1, 1), (1, 1))
    assert chi == [3, 3]


def test_contraction_reaches_w():
    for k in range(1, 9):
        for tree in enumerate_marked_trees(k):
            U, chi_bar, psi_bar = contract(tree)  # asserts U^t G U = W_k
            # the isotropic generator is the last coordinate
            if k % 2 == 0:
                s = k // 2
                assert chi_bar[-1] == 0
                assert sorted(abs(c) for c in chi_bar[:-1]) == [1] * (s - 1) + [3] * s
                assert abs(psi_bar[-1]) == 2
            else:
                s = (k + 1) // 2
                assert abs(chi_bar[-1]) == 2
                assert sorted(abs(c) for c in chi_bar[:-1]) == [1] * (s - 1) + [3] * (
                    s - 1
                )
                assert psi_bar[-1] == 0
                assert sorted(abs(c) for c in psi_bar[:-1]) == [1] * (s - 1) + [3] * (
                    s - 1
                )


def test_expected_lattice_determinants():
    for s in (2, 3):
        assert expected_lattice("th1.1", s).det() == 10 * s - 1
        assert expected_lattice("th1.2", s).det() == 4
        assert expected_lattice("th1.3", s).det() == 16
        assert expected_lattice("th1.4", s).det() == 4 * (10 * s - 6)
    assert expected_lattice("th1.1", 1).rank == 0
    assert expected_lattice("th1.4", 1).rank == 0
    assert expected_lattice("th1.2", 1).rank == 0
    assert expected_lattice("th1.3", 1).det() == 16


def test_root_det_closed_form():
    """det A_(n-1) = n and det D_(n+4) = 4 against the Bareiss determinant
    of every fiber root lattice of every series tree up to s = 3."""
    for series in SERIES:
        for s in (1, 2, 3):
            for tree in enumerate_marked_trees(series_k(series, s)):
                sk, leaves = tree_to_skeleton(tree)
                o = orientation_for_series(sk, leaves, series)
                types, _, _ = fiber_types(from_skeleton(sk, o))
                for ft in types.values():
                    assert ft.root_det == root_lattice(ft).det()


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("s", [1, 2])
def test_verify_series_small(series, s):
    report = verify_series(series, s)
    assert report.ok
    expected_order = {"th1.1": 3, "th1.2": 2, "th1.3": 1, "th1.4": 4}[series]
    for _, _, mw, _ in report.results:
        assert mw.order == (expected_order if s == 1 else 1)


def test_tree_edge_orientation_is_irrelevant():
    rng = random.Random(71)
    for tree in enumerate_marked_trees(3):
        sk, leaves = tree_to_skeleton(tree)
        loop_ends = {lf.loop_tail for lf in leaves} | {lf.loop_head for lf in leaves}
        for series in ("th1.2", "th1.4"):
            o = orientation_for_series(sk, leaves, series)
            base = homology.trivalent_invariants(from_skeleton(sk, o))
            heads = list(o.heads)
            for i, (a, b) in enumerate(sk.edges):
                if a not in loop_ends and rng.random() < 0.5:
                    heads[i] = a + b - heads[i]
            o2 = Orientation(tuple(heads))
            inv = homology.trivalent_invariants(from_skeleton(sk, o2))
            assert is_isometric(base.T, inv.T)
            assert inv.mw == base.mw


def test_surface_key_counts():
    """The k+1 markings of a plane tree and of its mirror share a key on
    th1.1/th1.2.  On the D5 series a marked tree shares its key with the
    mirror of its tree rooted at the D5 leaf only, so there are
    (Catalan(k-1) + mirror-symmetric trees) / 2 keys."""
    d5_surfaces = [1, 1, 1, 3, 7, 22, 66, 217]
    for k, surfaces in ((1, 1), (2, 1), (3, 1), (4, 1), (7, 12), (8, 27)):
        trees = enumerate_marked_trees(k)
        assert len({surface_key(t, "th1.1") for t in trees}) == surfaces
        assert {surface_key(t, "th1.1") for t in trees} == {
            surface_key(t, "th1.2") for t in trees}
    for k, surfaces in enumerate(d5_surfaces, 1):
        trees = enumerate_marked_trees(k)
        assert len({surface_key(t, "th1.3") for t in trees}) == surfaces
        assert {surface_key(t, "th1.3") for t in trees} == {
            surface_key(t, "th1.4") for t in trees}
        symmetric = sum(t == mirrored(t) for t in trees)
        assert 2 * surfaces == len(trees) + symmetric


def mirrored(tree):
    """The binary tree with every node's children swapped."""
    return None if tree is None else (mirrored(tree[1]), mirrored(tree[0]))


def t_mw_fibers(inv):
    return inv.T, inv.mw, sorted(ft.name for ft in inv.fibers[0].values())


def test_shared_rows_match_per_tree_analysis():
    """`verify_series` analyses one tree per surface.  Here every tree of
    every series for s <= 3 is analysed on its own: its row must equal the
    shared row, and the trees of one key must have isometric T, equal MW
    and the same fiber names."""
    for series in SERIES:
        for s in (1, 2, 3):
            k = series_k(series, s)
            expect = expected_lattice(series, s)
            shared = verify_series(series, s).results
            trees = enumerate_marked_trees(k)
            firsts = {}
            for idx, _, _, _, _, inv in series_trees(k, series):
                T, mw, names = t_mw_fibers(inv)
                assert names == expected_fiber_names(series, s)
                row = (idx, bool(is_isometric(T, expect)), mw, mw.order == 1 or s == 1)
                assert row == shared[idx]
                key = surface_key(trees[idx], series)
                if key in firsts:
                    T1, mw1, names1 = firsts[key]
                    assert is_isometric(T, T1) and mw == mw1 and names == names1
                else:
                    firsts[key] = T, mw, names


def test_relabelling_ends_preserves_the_surface():
    """Renumbering the ends of an oriented skeleton (op, nx and the heads)
    keeps T up to isometry, MW and the fiber names: the premise of
    `surface_key`."""
    rng = random.Random(26)
    for _ in range(60):
        sk = random_skeleton(rng, rng.choice([2, 4, 6, 8]))
        o = Orientation(tuple(rng.choice(e) for e in sk.edges))
        perm = list(range(sk.n_ends))
        rng.shuffle(perm)
        op, nx = [0] * sk.n_ends, [0] * sk.n_ends
        for e in range(sk.n_ends):
            op[perm[e]] = perm[sk.op[e]]
            nx[perm[e]] = perm[sk.nx[e]]
        sk2 = Skeleton(sk.n_ends, op, nx)
        sk2.validate()
        head_of = {frozenset((perm[a], perm[b])): perm[h]
                   for (a, b), h in zip(sk.edges, o.heads)}
        o2 = Orientation(tuple(head_of[frozenset(e)] for e in sk2.edges))
        T, mw, names = t_mw_fibers(homology.trivalent_invariants(from_skeleton(sk, o)))
        T2, mw2, names2 = t_mw_fibers(
            homology.trivalent_invariants(from_skeleton(sk2, o2)))
        assert is_isometric(T, T2) and mw == mw2 and names == names2


def test_mirror_preserves_the_surface():
    """The mirror (op, nx⁻¹, every head reversed) of an oriented skeleton,
    its complex conjugate, keeps T up to isometry, MW and the fiber names:
    the premise of the mirror word in `surface_key`.  Mirroring with the
    heads kept changes them on some skeleton, so the test tells the two
    apart."""
    rng = random.Random(27)
    kept_differs = 0
    for _ in range(60):
        sk = random_skeleton(rng, rng.choice([2, 4, 6, 8]))
        o = Orientation(tuple(rng.choice(e) for e in sk.edges))
        mirror = Skeleton(sk.n_ends, sk.op, sk.nx_inv)
        mirror.validate()
        T, mw, names = t_mw_fibers(homology.trivalent_invariants(from_skeleton(sk, o)))

        def same_surface(heads):
            T2, mw2, names2 = t_mw_fibers(
                homology.trivalent_invariants(from_skeleton(mirror, heads)))
            return bool(is_isometric(T, T2)) and mw == mw2 and names == names2

        assert same_surface(Orientation(tuple(sk.op[h] for h in o.heads)))
        kept_differs += not same_surface(o)
    assert kept_differs


def canonical_map(sk, o):
    """The oriented pseudo-tree up to renumbering its ends, flipping its
    vertices and mirroring it, independently of `surface_key`: the
    smallest breadth-first code of (op, nx, loop heads) and of its mirror
    (op, nx⁻¹, loop heads reversed), over every starting end.  Every edge
    but a loop is a bridge, so the loop heads are the flip class."""
    loop_heads = [h for (a, b), h in zip(sk.edges, o.heads)
                  if sk.vertex_of(a) == sk.vertex_of(b)]
    codes = []
    for nx, heads in ((sk.nx, loop_heads), (sk.nx_inv, [sk.op[h] for h in loop_heads])):
        for start in range(sk.n_ends):
            label, order = {start: 0}, [start]
            for e in order:
                for f in (nx[e], sk.op[e]):
                    if f not in label:
                        label[f] = len(order)
                        order.append(f)
            codes.append((tuple((label[nx[e]], label[sk.op[e]]) for e in order),
                          tuple(sorted(label[h] for h in heads))))
    return min(codes)


@pytest.mark.parametrize("series", SERIES)
def test_surface_key_matches_canonical_maps(series):
    """For every k <= 7, `surface_key` splits the marked trees into the
    classes of their oriented skeletons up to renumbering, flips and
    mirror: a coarser key would skip a surface that is not analysed."""
    for k in range(1, 8):
        by_key, by_map = {}, {}
        for idx, tree in enumerate(enumerate_marked_trees(k)):
            sk, leaves = tree_to_skeleton(tree)
            o = orientation_for_series(sk, leaves, series)
            by_key.setdefault(surface_key(tree, series), []).append(idx)
            by_map.setdefault(canonical_map(sk, o), []).append(idx)
        assert sorted(by_key.values()) == sorted(by_map.values())


def test_braid_words_shape():
    (tree,) = enumerate_marked_trees(2)
    words, n, eps, exponent = braid_words(tree, "th1.1")
    assert n == [6, 3]
    assert eps == 0
    assert exponent == 2
    assert len(words) == 3
    assert words[0] == [1] * 6 + [2] + [-1] * 6
    assert words[2] == [2]
    words, _, eps, exponent = braid_words(tree, "th1.3")
    assert eps == 1
    assert exponent == 4
    assert words[2] == [2, 1, 2, 1, 2, 1, 2]


def test_pi1_k2_is_z6():
    (tree,) = enumerate_marked_trees(2)
    inv = pi1_for_tree(tree, "th1.1")
    assert inv.free_rank == 0
    assert inv.torsion == (6,)


def test_pi1_series_cyclic():
    for series in SERIES:
        for s in (2, 3):
            k = series_k(series, s)
            for tree in enumerate_marked_trees(k):
                inv = pi1_for_tree(tree, series)
                assert inv.free_rank == 0
                assert len(inv.torsion) <= 1


def test_pi1_abelianization_no_relations():
    inv = pi1_abelianization([], 0)
    assert inv.free_rank == 3
    assert inv.torsion == ()
