import random
from itertools import product

import pytest

from ellskel.exact import identity, mat_eq, mat_mul, mat_neg
from ellskel.skeletons import (
    NX,
    NX_INV,
    OP,
    Orientation,
    Path,
    Skeleton,
    SkeletonError,
    XINV,
    YINV,
    X,
    Y,
    default_orientation,
    fiber_types,
    fundamental_cycle,
    genus,
    gl2_apply,
    gl2_mul,
    monodromy,
    parallel_transport,
    regions,
    step_matrix,
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


def test_generator_identities():
    assert mat_eq(gl2_mul(X, X, X), identity(2))
    assert mat_eq(gl2_mul(Y, Y), mat_neg(identity(2)))
    assert gl2_mul(X, Y) == [(1, 1), (0, 1)]
    assert mat_eq(gl2_mul(X, XINV), identity(2))
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
    rs = regions(THETA_PLANAR)
    assert sorted(r.size for r in rs) == [2, 2, 2]
    assert genus(THETA_PLANAR) == 0
    rs = regions(THETA_TORUS)
    assert [r.size for r in rs] == [6]
    assert genus(THETA_TORUS) == 1
    rs = regions(PSEUDOTREE_K1)
    assert sorted(r.size for r in rs) == [1, 1, 4]
    assert genus(PSEUDOTREE_K1) == 0


def test_region_count_identity():
    # r = k + 2 - 2g
    rng = random.Random(5)
    for _ in range(40):
        sk = random_skeleton(rng, rng.choice([2, 4, 6]))
        k = sk.n_ends // 6
        assert len(regions(sk)) == k + 2 - 2 * genus(sk)


def test_path_validation():
    Path(0, (OP, NX, OP, NX_INV))
    with pytest.raises(ValueError):
        Path(0, (OP, OP))
    with pytest.raises(ValueError):
        Path(0, (NX, NX_INV))
    with pytest.raises(ValueError):
        Path(0, ("bogus",))


def test_monodromy_empty_and_region():
    o = default_orientation(THETA_TORUS)
    assert mat_eq(monodromy(THETA_TORUS, o, Path(0, ())), identity(2))
    for sk in (THETA_TORUS, THETA_PLANAR, PSEUDOTREE_K1):
        o = default_orientation(sk)
        for reg in regions(sk):
            m = monodromy(sk, o, reg.boundary_path())
            n = reg.size
            assert m in ([(1, n), (0, 1)], [(-1, -n), (0, -1)])


def test_monodromy_matches_step_products():
    """The inline 2x2 product against mat_mul over the step lifts, built
    here from the generators, on random reduced words with all three
    step kinds."""
    lifts = {NX: mat_neg(gl2_mul(XINV)), NX_INV: mat_neg(gl2_mul(X))}
    rng = random.Random(29)
    seen = set()
    for _ in range(40):
        sk = random_skeleton(rng, rng.choice([2, 4, 6]))
        o = rng.choice(list(all_orientations(sk)))
        word = []
        for _ in range(rng.randint(0, 9)):
            word += [OP, rng.choice((NX, NX_INV))]
        if rng.random() < 0.5:
            word = word[1:]
        path = Path(rng.randrange(sk.n_ends), tuple(word))
        want = identity(2)
        for step, end in zip(path.word, path.ends(sk)):
            if step == OP:
                lift = mat_neg(gl2_mul(Y if o.is_head(sk.op[end]) else YINV))
            else:
                lift = lifts[step]
            assert [tuple(r) for r in lift] == list(step_matrix(sk, o, step, end))
            want = mat_mul(lift, want)
            seen.add(step)
        assert monodromy(sk, o, path) == [tuple(r) for r in want]
    assert seen == {OP, NX, NX_INV}


def test_monogon_orientation_sign():
    # loop edge (1,2) of the k=1 pseudo-tree: head at 2 makes the monogon +
    sk = PSEUDOTREE_K1
    heads = []
    for a, b in sk.edges:
        heads.append(2 if (a, b) == (1, 2) else 5 if (a, b) == (4, 5) else a)
    o = Orientation(tuple(heads))
    reg = next(r for r in regions(sk) if r.cycle == (1,))
    assert monodromy(sk, o, reg.boundary_path()) == [(1, 1), (0, 1)]


def test_parallel_transport():
    sk = THETA_TORUS
    o = default_orientation(sk)
    chain = parallel_transport(sk, o, Path(0, (NX,)), (1, 0))
    assert chain[0] == (0, (1, 0))
    assert chain[1][0] == sk.nx[0]
    assert chain[1][1] == (0, -1)  # -X^-1 applied to a
    zero = parallel_transport(sk, o, Path(0, (NX, OP)), (0, 0))
    assert all(h == (0, 0) for _, h in zero)


def test_invariant_transport_around_stable_region():
    sk = PSEUDOTREE_K1
    heads = []
    for a, b in sk.edges:
        heads.append(2 if (a, b) == (1, 2) else 5 if (a, b) == (4, 5) else a)
    o = Orientation(tuple(heads))
    for reg in regions(sk):
        m = monodromy(sk, o, reg.boundary_path())
        if m[0][0] == 1:  # stable region, a is invariant
            assert gl2_apply(m, (1, 0)) == (1, 0)
            chain = parallel_transport(sk, o, reg.boundary_path(), (1, 0))
            assert chain[-1] == chain[0]


def test_fundamental_cycle():
    sk = PSEUDOTREE_K1
    heads = []
    for a, b in sk.edges:
        heads.append(2 if (a, b) == (1, 2) else 5 if (a, b) == (4, 5) else a)
    o = Orientation(tuple(heads))
    reg = next(r for r in regions(sk) if r.cycle == (1,))
    v = fundamental_cycle(sk, o, reg.boundary_path(), (1, 0))
    assert any(v)
    assert len(v) == 12
    # trivial loop gives the zero chain
    assert fundamental_cycle(sk, o, Path(0, ()), (1, 0)) == [0] * 12
    # non-invariant vector is rejected
    bad = next(r for r in regions(sk) if r.size == 4)
    m = monodromy(sk, o, bad.boundary_path())
    if gl2_apply(m, (1, 0)) != (1, 0):
        with pytest.raises(ValueError):
            fundamental_cycle(sk, o, bad.boundary_path(), (1, 0))


def test_fiber_types_k1():
    sk = PSEUDOTREE_K1
    heads = []
    for a, b in sk.edges:
        heads.append(2 if (a, b) == (1, 2) else 5 if (a, b) == (4, 5) else a)
    o = Orientation(tuple(heads))
    types, k, t = fiber_types(sk, o)
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
    types, k, t = fiber_types(sk, o)
    names = sorted(ft.name for ft in types.values())
    assert "D~5" in names


def test_k_plus_t_even_orientation_sweep():
    for sk in (THETA_TORUS, THETA_PLANAR, PSEUDOTREE_K1):
        for o in all_orientations(sk):
            _, k, t = fiber_types(sk, o)
            assert (k + t) % 2 == 0


def test_milnor_identity_randomized():
    rng = random.Random(12)
    for _ in range(25):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        o = default_orientation(sk)
        types, k, t = fiber_types(sk, o)
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
        base = sorted(ft.name for ft in fiber_types(sk, o)[0].values())
        nv = sk.n_ends // 3
        subset = [v for v in range(nv) if rng.random() < 0.5]
        o2 = reorient(sk, o, subset)
        assert sorted(ft.name for ft in fiber_types(sk, o2)[0].values()) == base


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
