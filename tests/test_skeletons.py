import random
from itertools import product

import pytest

from ellskel.exact import identity, mat_mul
from ellskel.generalized import from_skeleton, insert_E_fiber
from ellskel.lattices import IntLattice, standard_lattice
from ellskel.skeletons import (
    NEG_X,
    Orientation,
    Skeleton,
    SkeletonError,
    X,
    Y,
    fiber_types,
    fundamental_cycle,
    genus,
    gl2_apply,
    gl2_mul,
    region_monodromy,
    region_steps,
)


def perm_from_cycles(n, cycles):
    p = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a] = b
    return tuple(p)


THETA_TORUS = Skeleton(
    6,
    op=perm_from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
    nx=perm_from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
)
THETA_PLANAR = Skeleton(
    6,
    op=perm_from_cycles(6, [(0, 3), (1, 5), (2, 4)]),
    nx=perm_from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
)
PSEUDOTREE_K1 = Skeleton(
    6,
    op=perm_from_cycles(6, [(0, 3), (1, 2), (4, 5)]),
    nx=perm_from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
)


def default_orientation(sk):
    """Heads at the smaller end of each edge."""
    return Orientation(tuple(a for a, _ in sk.edges))


def root_lattice(ft):
    """The root lattice of a fiber type: A_(n-1) of an n-gon, D_(n+4)."""
    if ft.kind == "D":
        return standard_lattice("D", ft.n_gon + 4)
    if ft.n_gon == 1:
        return IntLattice([])
    return standard_lattice("A", ft.n_gon - 1)


def random_skeleton(rng, n_vertices):
    """Random connected trivalent skeleton on 3*n_vertices ends."""
    n = 3 * n_vertices
    while True:
        ends = list(range(n))
        rng.shuffle(ends)
        nx_cycles = [tuple(ends[i : i + 3]) for i in range(0, n, 3)]
        ends2 = list(range(n))
        rng.shuffle(ends2)
        op_cycles = [tuple(ends2[i : i + 2]) for i in range(0, n, 2)]
        sk = Skeleton(n, perm_from_cycles(n, op_cycles),
                      perm_from_cycles(n, nx_cycles))
        try:
            sk.validate()
        except SkeletonError:
            continue
        return sk


def all_orientations(sk):
    for heads in product(*sk.edges):
        yield Orientation(heads)


def reorient(sk, orientation, vertex_subset):
    """Flip every edge with exactly one end at a vertex of the subset."""
    vs = set(vertex_subset)
    flipped = []
    for (a, b), h in zip(sk.edges, orientation.heads):
        inside = (sk.vertex_of(a) in vs) + (sk.vertex_of(b) in vs)
        flipped.append((a + b - h) if inside == 1 else h)
    return Orientation(tuple(flipped))


NEG_I = ((-1, 0), (0, -1))


def test_generator_identities():
    assert gl2_mul(X, X, X) == ((1, 0), (0, 1))
    assert gl2_mul(Y, Y) == NEG_I
    assert gl2_mul(X, Y) == ((1, 1), (0, 1))
    assert gl2_mul(NEG_I, X) == NEG_X
    # X cycles (a, b) -> (c, a) -> (b, c) with c = -a - b
    assert gl2_apply(X, (1, 0)) == (-1, -1)
    assert gl2_apply(X, (0, 1)) == (1, 0)


def test_validate():
    THETA_TORUS.validate()
    assert THETA_TORUS.counts() == {"ends": 6, "vertices": 2, "edges": 3}
    with pytest.raises(SkeletonError, match="fixed point"):
        Skeleton(6, (0, 1, 2, 3, 4, 5),
                 perm_from_cycles(6, [(0, 1, 2), (3, 4, 5)])).validate()
    with pytest.raises(SkeletonError, match="length 3"):
        Skeleton(6, perm_from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
                 perm_from_cycles(6, [(0, 1), (2, 3), (4, 5)])).validate()
    # two disjoint theta graphs
    op = perm_from_cycles(12, [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)])
    nx = perm_from_cycles(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
    with pytest.raises(SkeletonError, match="connected"):
        Skeleton(12, op, nx).validate()


def test_regions_and_genus():
    rs = THETA_PLANAR.regions
    assert sorted(r.size for r in rs) == [2, 2, 2]
    assert genus(THETA_PLANAR) == 0
    rs = THETA_TORUS.regions
    assert [r.size for r in rs] == [6]
    assert genus(THETA_TORUS) == 1
    rs = PSEUDOTREE_K1.regions
    assert sorted(r.size for r in rs) == [1, 1, 4]
    assert genus(PSEUDOTREE_K1) == 0


def test_region_count_identity():
    # r = k + 2 - 2g
    rng = random.Random(5)
    for _ in range(40):
        sk = random_skeleton(rng, rng.choice([2, 4, 6]))
        k = sk.n_ends // 6
        assert len(sk.regions) == k + 2 - 2 * genus(sk)


def k1_all_A_orientation():
    """Heads of PSEUDOTREE_K1 that make both monogons stable."""
    sk = PSEUDOTREE_K1
    heads = []
    for a, b in sk.edges:
        heads.append(2 if (a, b) == (1, 2) else 5 if (a, b) == (4, 5) else a)
    return Orientation(tuple(heads))


def test_monodromy_empty_and_region():
    for sk in (THETA_TORUS, THETA_PLANAR, PSEUDOTREE_K1):
        lsk = from_skeleton(sk, default_orientation(sk))
        for reg in lsk.regions:
            m = region_monodromy(lsk, reg.cycle)
            n = reg.size
            assert m in (((1, n), (0, 1)), ((-1, -n), (0, -1)))


def oracle_walk(lsk, cycle):
    """(end reached, lift) per step around a region, with every lift built
    here from X and the edge labels through mat_mul: -L onto the head of an
    edge labelled L and -L^-1 onto its tail, -X for an nx^-1 step."""
    def inverse(L):
        (a, b), (c, d) = L
        inv = [[d, -b], [-c, a]]
        assert mat_mul([list(r) for r in L], inv) == identity(2)
        return inv

    onto = {}
    for (a, b), h, L in zip(lsk.edges, lsk.heads, lsk.labels):
        for end in (a, b):
            M = [list(r) for r in L] if end == h else inverse(L)
            onto[end] = mat_mul([list(r) for r in NEG_I], M)
    neg_x = mat_mul([list(r) for r in NEG_I], [list(r) for r in X])
    steps = []
    cur = cycle[0]
    for _ in cycle:
        cur = lsk.op[cur]
        steps.append((cur, onto[cur]))
        cur = lsk.nx.index(cur)
        steps.append((cur, neg_x))
    assert cur == cycle[0]
    return onto, steps


def _random_oriented(rng):
    sk = random_skeleton(rng, rng.choice([2, 4]))
    return sk, Orientation(tuple(rng.choice(e) for e in sk.edges))


def test_monodromy_matches_step_products():
    """The lift table, the walk and the inline 2x2 product of the region
    monodromy against lifts built from the generators, on random oriented
    skeletons and with every kind of spliced fiber."""
    rng = random.Random(29)
    kinds = [("A0**", None), ("E6", None), ("A1*", None), ("E7", None),
             ("A2*", 0), ("A2*", 1), ("E8", 0), ("E8", 1)]
    skeletons = []
    for _ in range(40):
        sk = random_skeleton(rng, rng.choice([2, 4, 6]))
        o = rng.choice(list(all_orientations(sk)))
        skeletons.append(from_skeleton(sk, o))
    for kind, variant in kinds:
        base = from_skeleton(*_random_oriented(rng))
        edge = rng.randrange(len(base.edges))
        skeletons.append(insert_E_fiber(base, edge, kind, variant))
    labels = set()
    for lsk in skeletons:
        for reg in lsk.regions:
            onto, steps = oracle_walk(lsk, reg.cycle)
            assert [tuple(map(tuple, onto[e])) for e in range(lsk.n_ends)] == list(
                lsk.lifts)
            got = list(region_steps(lsk, reg.cycle))
            assert [(e, [list(r) for r in m]) for e, m in got] == steps
            want = identity(2)
            for _, lift in steps:
                want = mat_mul(lift, want)
            assert region_monodromy(lsk, reg.cycle) == tuple(map(tuple, want))
        labels.update(lsk.labels)
    assert len(labels) == 5  # Y and the four labels of the spliced fibers


def test_monogon_orientation_sign():
    # loop edge (1,2) of the k=1 pseudo-tree: head at 2 makes the monogon +
    lsk = from_skeleton(PSEUDOTREE_K1, k1_all_A_orientation())
    reg = next(r for r in lsk.regions if r.cycle == (1,))
    assert region_monodromy(lsk, reg.cycle) == ((1, 1), (0, 1))


def test_invariant_transport_around_stable_region():
    lsk = from_skeleton(PSEUDOTREE_K1, k1_all_A_orientation())
    stable = 0
    for reg in lsk.regions:
        m = region_monodromy(lsk, reg.cycle)
        if m[0][0] == 1:  # stable region, a is invariant
            stable += 1
            assert gl2_apply(m, (1, 0)) == (1, 0)
            h = (1, 0)
            for _, lift in region_steps(lsk, reg.cycle):
                h = gl2_apply(lift, h)
            assert h == (1, 0)
    assert stable == 2


def test_fundamental_cycle():
    lsk = from_skeleton(PSEUDOTREE_K1, k1_all_A_orientation())
    reg = next(r for r in lsk.regions if r.cycle == (1,))
    v = fundamental_cycle(lsk, reg.cycle, (1, 0))
    # the walk reaches end 2 by op, carrying -Y a = -b, and end 1 by nx^-1,
    # carrying -X (-b) = a
    assert v == [0, 0, 1, 0, 0, -1] + [0] * 6
    # non-invariant vector is rejected
    bad = next(r for r in lsk.regions if r.size == 4)
    m = region_monodromy(lsk, bad.cycle)
    assert gl2_apply(m, (1, 0)) != (1, 0)
    with pytest.raises(ValueError, match="invariant"):
        fundamental_cycle(lsk, bad.cycle, (1, 0))


def test_fiber_types_k1():
    types, k, t = fiber_types(from_skeleton(PSEUDOTREE_K1, k1_all_A_orientation()))
    names = sorted(ft.name for ft in types.values())
    assert names == ["A~0*", "A~0*", "D~8"]
    assert (k, t) == (1, 1)
    mu = sum(ft.milnor for ft in types.values())
    assert mu == 5 * k + 5 * t - 2  # g = 0


def test_fiber_types_flip_one_loop():
    sk = PSEUDOTREE_K1
    heads = []
    for a, b in sk.edges:
        heads.append(1 if (a, b) == (1, 2) else 5 if (a, b) == (4, 5) else a)
    o = Orientation(tuple(heads))
    types, k, t = fiber_types(from_skeleton(sk, o))
    names = sorted(ft.name for ft in types.values())
    assert "D~5" in names


def test_k_plus_t_even_orientation_sweep():
    for sk in (THETA_TORUS, THETA_PLANAR, PSEUDOTREE_K1):
        for o in all_orientations(sk):
            _, k, t = fiber_types(from_skeleton(sk, o))
            assert (k + t) % 2 == 0


def test_milnor_identity_randomized():
    rng = random.Random(12)
    for _ in range(25):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        o = default_orientation(sk)
        types, k, t = fiber_types(from_skeleton(sk, o))
        g = genus(sk)
        assert sum(ft.milnor for ft in types.values()) == 2 * g + 5 * k + 5 * t - 2


def test_reorient():
    sk = THETA_TORUS
    o = default_orientation(sk)
    assert reorient(sk, o, []) == o
    assert reorient(sk, o, [0, 1]) == o  # every edge has both ends flipped
    o2 = reorient(sk, o, [0])
    assert all(h2 == sk.op[h] for h, h2 in zip(o.heads, o2.heads))


def test_reorient_preserves_fiber_types():
    rng = random.Random(14)
    for _ in range(20):
        sk = random_skeleton(rng, 2)
        o = default_orientation(sk)
        base = sorted(ft.name for ft in fiber_types(from_skeleton(sk, o))[0].values())
        nv = sk.n_ends // 3
        subset = [v for v in range(nv) if rng.random() < 0.5]
        o2 = reorient(sk, o, subset)
        names = fiber_types(from_skeleton(sk, o2))[0].values()
        assert sorted(ft.name for ft in names) == base


def test_vertex_of_index():
    sk = random_skeleton(random.Random(5), 4)
    fresh = Skeleton(sk.n_ends, sk.op, sk.nx)
    for i, v in enumerate(sk.vertices):
        for end in v:
            assert sk.vertex_of(end) == i
    assert sk == fresh and hash(sk) == hash(fresh) and repr(sk) == repr(fresh)
    for end in (-1, sk.n_ends):
        with pytest.raises(ValueError):
            sk.vertex_of(end)
