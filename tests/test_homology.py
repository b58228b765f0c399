import ast
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path

import ellskel
from ellskel import homology, skelfile
from ellskel.exact import (
    AbelianInvariants,
    cokernel_invariants,
    column_lattice_hnf,
    hermite_form,
    identity,
    integer_kernel,
    mat_copy,
    mat_mul,
    shape,
    transpose,
    zeros,
)
from ellskel.generalized import (
    LabelledSkeleton,
    from_skeleton,
    insert_E_fiber,
    kernel_cycles,
)
from ellskel.homology import (
    h_gamma,
    mordell_weil,
    region_cohomology,
    transcendental_lattice,
    trivalent_invariants,
)
from ellskel.lattices import IntLattice, is_isometric, quotient_by
from ellskel.pseudotrees import (
    SERIES,
    enumerate_marked_trees,
    orientation_for_series,
    series_k,
    tree_to_skeleton,
)
from ellskel.skeletons import (
    X,
    Y,
    Orientation,
    fiber_types,
    gl2_mul,
    orientation_classes,
    region_steps,
)

from test_skeletons import (
    PSEUDOTREE_K1,
    THETA_PLANAR,
    THETA_TORUS,
    default_orientation,
    k1_all_A_orientation,
    random_skeleton,
    reorient,
    root_lattice,
)

GOLDEN = Path(__file__).parent / "golden"


def dense(matrix):
    """The dense rows of a sparse matrix (rows, n) from the engine."""
    rows, n = matrix
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _add_block(M, r, c, blk):
    for i in range(2):
        for j in range(2):
            M[r + i][c + j] += blk[i][j]


def tripod_relations(lsk, marking=None):
    """Oracle: the relation matrix on one H per edge-end, built
    independently of the engine.

    One vertex relation sum_i X^(i mod 3) h_(m_i) = 0 per vertex, its ends
    m_1, m_2, ... in nx order from the marked end m_1 (default: the
    smallest), so h_m1 + X h_m2 + X^2 h_m3 = 0 at a trivalent vertex; and
    h_head + L h_tail = 0 per edge.
    """
    if marking is None:
        marking = tuple(v[0] for v in lsk.vertices)
    D = zeros(2 * len(lsk.vertices) + 2 * len(lsk.edges), 2 * lsk.n_ends)
    for vi, m in enumerate(marking):
        for i in range(len(lsk.vertices[vi])):
            _add_block(D, 2 * vi, 2 * m, gl2_mul(*[X] * (i % 3)))
            m = lsk.nx[m]
    for ei, ((a, b), h, L) in enumerate(zip(lsk.edges, lsk.heads, lsk.labels)):
        r = 2 * (len(lsk.vertices) + ei)
        _add_block(D, r, 2 * h, ((1, 0), (0, 1)))
        _add_block(D, r, 2 * (a + b - h), L)
    return D


def expansion(lsk):
    """Oracle: Phi, the end values (rows) of the edge values (columns).

    An edge's value is the value at its smaller end; the other end carries
    -L times it at a head and -L^-1 times it at a tail, so that
    h_head + L h_tail = 0.
    """
    P = zeros(2 * lsk.n_ends, 2 * len(lsk.edges))
    for e, ((a, b), h, L) in enumerate(zip(lsk.edges, lsk.heads, lsk.labels)):
        (p, q), (r, t) = L
        M = [[-p, -q], [-r, -t]] if b == h else [[-t, q], [r, -p]]
        _add_block(P, 2 * a, 2 * e, ((1, 0), (0, 1)))
        _add_block(P, 2 * b, 2 * e, M)
    return P


def through_expansion(lsk, hg):
    """One flag per check of the engine's edge-coordinate results against
    the end-coordinate oracles: the edge rows vanish on Phi, D = the vertex
    rows of D_ends Phi, Phi K = the canonical kernel of D_ends, both
    cokernels have the same torsion, and on a trivalent skeleton the form
    is Phi^t F6 Phi."""
    D_ends, P = tripod_relations(lsk), expansion(lsk)
    nv = 2 * len(lsk.vertices)
    checks = {
        "edge rows": not any(map(any, mat_mul(D_ends[nv:], P))),
        "relations": dense((hg.relations, len(P[0]))) == mat_mul(D_ends[:nv], P),
        "kernel": integer_kernel(D_ends) == mat_mul(P, hg.kernel),
        "torsion": cokernel_invariants(D_ends).torsion == hg.torsion,
    }
    if all(len(v) == 3 for v in lsk.vertices):
        form = mat_mul(transpose(P), mat_mul(tripod_form6(lsk), P))
        checks["form"] = dense(homology.scaled_form(lsk)) == form
    return checks


def tripod_form6(sk):
    """Oracle: 6 * the tripod form, blocks -S X at (a, nx a) plus transpose."""
    n = sk.n_ends
    F6 = zeros(2 * n, 2 * n)
    for a in range(n):
        b = sk.nx[a]
        _add_block(F6, 2 * a, 2 * b, ((1, 0), (-1, 1)))
        _add_block(F6, 2 * b, 2 * a, ((1, -1), (0, 1)))
    return F6


def h_gamma_marked(sk, kernel, marking):
    """Gram of the marked form -sum_v s(h_m1, X h_m2) on a kernel basis.

    The cross-check route for a trivalent skeleton: the kernel is the same
    for every marking (rotating a vertex relation multiplies it by the
    unimodular X^2), so this must equal the ambient Gram for every one.
    The form is kept scaled by 2, with the block -S X at (m1, m2).
    """
    n = sk.n_ends
    F2 = zeros(2 * n, 2 * n)
    for v, m1 in zip(sk.vertices, marking):
        if m1 not in v:
            raise AssertionError(f"marking {m1} is not an end of vertex {v}")
        m2 = sk.nx[m1]
        _add_block(F2, 2 * m1, 2 * m2, ((1, 0), (-1, 1)))
        _add_block(F2, 2 * m2, 2 * m1, ((1, -1), (0, 1)))
    G = mat_mul(transpose(kernel), mat_mul(F2, kernel))
    if any(x % 2 for row in G for x in row):
        raise AssertionError("marked form is not integral")
    return [[x // 2 for x in row] for row in G]


def rank(M):
    return sum(1 for row in hermite_form(M) if any(row))


def smith_normal_form(M):
    """Oracle: the dense Smith form with both transforms, (S, U, V) with
    S = U*M*V diagonal, d_1 | d_2 | ..., d_i >= 0, by the rules that
    `exact.smith_form` replays on sparse rows."""
    S = mat_copy(M)
    m, n = shape(S)
    U = identity(m)
    V = identity(n)

    def row_op(i, k, q):  # row_i -= q * row_k
        S[i] = [a - q * b for a, b in zip(S[i], S[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in S:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    t = 0
    while True:
        # locate a minimal nonzero entry in S[t:, t:]
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (
                    piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            S[t], S[i] = S[i], S[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for row in S:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            again = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, q)
                    if S[i][t] != 0:
                        S[t], S[i] = S[i], S[t]
                        U[t], U[i] = U[i], U[t]
                        again = True
            if again:
                continue
            # clear row t
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j] != 0:
                        for row in S:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        again = True
            if not again and all(S[i][t] == 0 for i in range(t + 1, m)):
                break
        # enforce divisibility of the remaining block by the pivot
        p = S[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # add row `bad` to row t, then redo the pivot
            continue
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
        if t == min(m, n):
            break
    return S, U, V


def unimodular_inverse(M):
    """Inverse of a unimodular integer matrix, as an integer matrix.

    The Hermite form of [M | I] is [I | M^-1] exactly when M is unimodular.
    """
    m, n = shape(M)
    if m != n:
        raise ValueError("matrix is not square")
    H = hermite_form([list(row) + e for row, e in zip(M, identity(n))])
    if [row[:n] for row in H] != identity(n):
        raise AssertionError("matrix is not unimodular")
    return [row[n:] for row in H]


def mat_inverse(M):
    """Exact inverse with Fraction entries; raises on singular input."""
    m, n = shape(M)
    if m != n:
        raise ValueError("matrix is not square")
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[k], A[piv] = A[piv], A[k]
        p = A[k][k]
        A[k] = [x / p for x in A[k]]
        for i in range(n):
            if i != k and A[i][k] != 0:
                c = A[i][k]
                A[i] = [x - c * y for x, y in zip(A[i], A[k])]
    return [row[n:] for row in A]


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite bilinear/quadratic form on L*/L of the nondegenerate part."""

    invariants: AbelianInvariants
    bilinear: tuple  # Fractions mod 1, pairings of the torsion generators
    quadratic: tuple | None  # Fractions mod 2 on generators; None unless even

    @property
    def order(self):
        return self.invariants.order


def radical_and_quotient(L):
    """Oracle: (radical basis columns, quotient) of L, the radical the kernel
    of the Gram matrix; a nondegenerate L is its own quotient."""
    if L.det():
        return [[] for _ in range(L.rank)], L
    G = L.gram_rows()
    K = integer_kernel(G)
    return K, quotient_by(G, K)


def discriminant(L):
    """Discriminant group and form of L (computed on L modulo its radical)."""
    _, Lq = radical_and_quotient(L)
    G = Lq.gram_rows()
    n = Lq.rank
    if n == 0:
        return DiscriminantForm(AbelianInvariants(0, ()), (), ())
    S, U, V = smith_normal_form(G)
    divisors = [S[i][i] for i in range(n)]
    idx = [i for i, d in enumerate(divisors) if d > 1]
    Ginv = mat_inverse(G)
    Uinv = unimodular_inverse(U)
    # generator i of the group is the dual vector G^-1 U^-1 e_i
    B = mat_mul(transpose(Uinv), mat_mul(Ginv, Uinv))
    bil = tuple(
        tuple(Fraction(B[i][j]) % 1 for j in idx) for i in idx
    )
    even = all(G[i][i] % 2 == 0 for i in range(n))
    quad = tuple(Fraction(B[i][i]) % 2 for i in idx) if even else None
    inv = AbelianInvariants(0, tuple(divisors[i] for i in idx))
    from test_exact import det  # test_exact imports this module

    if inv.order != abs(det(G)):
        raise AssertionError(f"discriminant group of order {inv.order} != |det|")
    return DiscriminantForm(inv, bil, quad)


def hg_of(sk, o):
    return h_gamma(from_skeleton(sk, o))


def test_boundary_matrix_shape_and_rank():
    """One H per edge: D keeps the 4 vertex rows over 6 edge columns of the
    10 x 12 end-coordinate matrix, and both have full row rank."""
    for sk in (PSEUDOTREE_K1, THETA_TORUS, THETA_PLANAR):
        lsk = from_skeleton(sk, default_orientation(sk))
        D_ends = tripod_relations(lsk)
        assert (len(D_ends), len(D_ends[0]), rank(D_ends)) == (10, 12, 10)
        D = dense(homology.relation_matrix(lsk))
        assert (len(D), len(D[0]), rank(D)) == (4, 6, 4)
        assert D == mat_mul(D_ends[:4], expansion(lsk))


def test_engine_matches_tripod_oracle():
    rng = random.Random(42)
    for _ in range(15):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        o = Orientation(tuple(rng.choice(e) for e in sk.edges))
        lsk = from_skeleton(sk, o)
        checks = through_expansion(lsk, h_gamma(lsk))
        assert len(checks) == 5 and all(checks.values()), checks
        assert homology.form_scale(lsk) == 6


def test_h_gamma_rank_2k():
    rng = random.Random(41)
    for _ in range(15):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        hg = hg_of(sk, default_orientation(sk))
        K, gram = hg.kernel, hg.gram
        k = sk.n_ends // 6
        assert len(K[0]) == 2 * k
        assert len(gram) == 2 * k


def test_k1_h_gamma_zero_form():
    sk = PSEUDOTREE_K1
    o = k1_all_A_orientation()
    lsk = from_skeleton(sk, o)
    hg = h_gamma(lsk)
    assert len(hg.kernel[0]) == 2
    assert all(x == 0 for row in hg.gram for x in row)
    T, spans = transcendental_lattice(lsk, hg)
    assert T.rank == 0 and spans
    assert len(radical_and_quotient(IntLattice(hg.gram))[0][0]) == 2


def test_marked_vs_unmarked_form():
    rng = random.Random(43)
    for _ in range(10):
        sk = random_skeleton(rng, 2)
        o = default_orientation(sk)
        lsk = from_skeleton(sk, o)
        hg = h_gamma(lsk)
        K = mat_mul(expansion(lsk), hg.kernel)  # in end coordinates
        for _ in range(5):
            marking = tuple(rng.choice(v) for v in sk.vertices)
            # the kernel does not depend on the marking of the relations
            assert integer_kernel(tripod_relations(lsk, marking)) == K
            assert h_gamma_marked(sk, K, marking) == hg.gram
        # different markings agree too (form is marking-independent on H)
        m1 = tuple(v[1] for v in sk.vertices)
        assert h_gamma_marked(sk, K, m1) == hg.gram


def test_mordell_weil_k1():
    # the k=1 all-stable-loop surface has fiber lattice U + D8 of det 4
    # inside unimodular H2, so the section group has order sqrt(4) = 2
    mw = mordell_weil(hg_of(PSEUDOTREE_K1, k1_all_A_orientation()))
    assert mw.torsion == (2,)


def test_mordell_weil_routes_agree_randomized():
    rng = random.Random(47)
    for _ in range(20):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        mordell_weil(hg_of(sk, default_orientation(sk)))  # raises on disagreement


def test_kernel_cycles_k1():
    sk = PSEUDOTREE_K1
    o = k1_all_A_orientation()
    lsk = from_skeleton(sk, o)
    cycles = kernel_cycles(lsk)
    assert len(cycles) == 2
    assert transcendental_lattice(lsk, h_gamma(lsk))[1]


def test_kernel_cycles_randomized():
    rng = random.Random(53)
    for _ in range(25):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        lsk = from_skeleton(sk, default_orientation(sk))
        assert transcendental_lattice(lsk, h_gamma(lsk))[1]


def _route_cases():
    """Oriented trivalent skeletons as all-Y labelled ones: 200 seeded random
    ones, every series tree with s <= 3, and every orientation class of
    three random 6-vertex skeletons."""
    rng = random.Random(71)
    for _ in range(200):
        sk = random_skeleton(rng, rng.choice([2, 4, 6, 8]))
        yield from_skeleton(sk, Orientation(tuple(rng.choice(e) for e in sk.edges)))
    for series in SERIES:
        for s in (1, 2, 3):
            for tree in enumerate_marked_trees(series_k(series, s)):
                sk, leaves = tree_to_skeleton(tree)
                yield from_skeleton(sk, orientation_for_series(sk, leaves, series))
    for _ in range(3):
        sk = random_skeleton(rng, 6)
        for o in orientation_classes(sk):
            yield from_skeleton(sk, o)


def route_spy(monkeypatch):
    """A `transcendental_lattice(lsk, hg)` that also returns the radical basis
    it passed to `quotient_by` last (None if none) and its route: "cycles"
    when the region cycles proved the radical, "gram" when it fell back to
    the kernel of the Gram matrix."""
    calls = []
    for name in ("integer_kernel", "quotient_by"):

        def spy(*args, name=name, original=getattr(homology, name)):
            calls.append((name, args[-1]))
            return original(*args)

        monkeypatch.setattr(homology, name, spy)

    def run(lsk, hg):
        calls.clear()
        T, spans = transcendental_lattice(lsk, hg)
        radical = next((K for name, K in reversed(calls) if name == "quotient_by"), None)
        route = "gram" if ("integer_kernel", hg.gram) in calls else "cycles"
        return T, spans, radical, route

    return run


def test_cycle_radical_matches_gram_kernel(monkeypatch):
    """`transcendental_lattice` gives the radical and the quotient T that the
    kernel of the Gram matrix gives, basis for basis and byte for byte:
    from the region cycles alone on trivalent input, and from the cycles
    or the Gram kernel on labelled input."""
    run = route_spy(monkeypatch)
    seen = Counter()
    for kind, cases in (("trivalent", _route_cases()), ("labelled", _labelled_cases())):
        for lsk in cases:
            hg = h_gamma(lsk)
            T, _, radical, route = run(lsk, hg)
            K, expected = radical_and_quotient(IntLattice(hg.gram))
            assert T.gram_rows() == expected.gram_rows()
            assert radical == (K if K[0] else None)
            seen[kind, route, bool(K[0])] += 1
    assert seen["trivalent", "cycles", True] >= 300, seen
    assert seen["trivalent", "cycles", False] >= 20, seen
    assert seen["labelled", "cycles", True] >= 75, seen
    assert seen["labelled", "gram", True] >= 1, seen
    assert not seen["trivalent", "gram", True] + seen["trivalent", "gram", False], seen


def dense_quotient(G, K):
    """Oracle: the quotient of `lattices.quotient_by` by the dense route,
    the complement read from U^-1 of the dense Smith form of K."""
    r = len(K[0])
    S, U, _ = smith_normal_form(K)
    assert all(S[i][i] == 1 for i in range(r))
    comp = [row[r:] for row in unimodular_inverse(U)]
    return mat_mul(transpose(comp), mat_mul(G, comp))


def _labelled_cases():
    """Labelled skeletons: random ones with up to three random det-1
    labels, series trees with one spliced fiber of each kind, and the two
    golden files whose region cycles do not prove the radical."""
    rng = random.Random(89)
    generators = (X, ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, -1)))
    for _ in range(120):
        sk = random_skeleton(rng, rng.choice([2, 4, 6]))
        labels = [Y] * len(sk.edges)
        for _ in range(rng.randint(1, 3)):
            labels[rng.randrange(len(labels))] = gl2_mul(
                *[rng.choice(generators) for _ in range(rng.randint(1, 4))])
        heads = tuple(rng.choice(e) for e in sk.edges)
        yield LabelledSkeleton(sk.n_ends, sk.op, sk.nx, heads, labels)
    kinds = [("A0**", None), ("E6", None), ("A1*", None), ("E7", None),
             ("A2*", 0), ("A2*", 1), ("E8", 0), ("E8", 1)]
    for series in SERIES:
        for tree in enumerate_marked_trees(series_k(series, 2)):
            sk, leaves = tree_to_skeleton(tree)
            lsk = from_skeleton(sk, orientation_for_series(sk, leaves, series))
            kind, variant = rng.choice(kinds)
            yield insert_E_fiber(lsk, rng.randrange(len(lsk.edges)), kind, variant)
    for name in ("labelled_cycles_short", "labelled_cycles_unsaturated"):
        yield skelfile.parse((GOLDEN / f"{name}.skel").read_text())


def test_quotient_by_matches_dense_route(monkeypatch):
    """`quotient_by`, whose complement comes from the sparse Smith replay,
    gives the Gram matrix of the dense route, byte for byte, on the
    trivalent cycle radicals and on the labelled radicals of both routes."""
    run = route_spy(monkeypatch)
    seen = Counter()
    for kind, cases in (("trivalent", _route_cases()), ("labelled", _labelled_cases())):
        for lsk in cases:
            hg = h_gamma(lsk)
            T, _, radical, route = run(lsk, hg)
            if radical:
                assert T.gram_rows() == dense_quotient(hg.gram, radical)
                seen[kind, route] += 1
    assert seen["trivalent", "cycles"] >= 300 and seen["labelled", "cycles"] >= 75, seen
    assert seen["labelled", "gram"] >= 1 and not seen["trivalent", "gram"], seen


def _saturation(C):
    """Oracle: the canonical basis of the saturation of the column span of
    C, by two dense kernels."""
    N = integer_kernel(transpose(C))
    if not (N and N[0]):
        return identity(len(C))
    return integer_kernel(transpose(N))


def test_span_check_matches_saturation(monkeypatch):
    """`transcendental_lattice`'s spans on labelled input against its
    definition: the saturation of the cycles' edge values is the radical,
    mapped to edge values; and its T against the Gram kernel's.  Random
    skeletons with up to three random det-1 labels reach both answers and
    both routes."""
    rng = random.Random(73)
    generators = (X, ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, -1)))
    run = route_spy(monkeypatch)
    seen = Counter()
    routes = Counter()
    for _ in range(250):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        heads = tuple(rng.choice(e) for e in sk.edges)
        labels = [Y] * len(sk.edges)
        for _ in range(rng.randint(1, 3)):
            labels[rng.randrange(len(labels))] = gl2_mul(
                *[rng.choice(generators) for _ in range(rng.randint(1, 4))])
        lsk = LabelledSkeleton(sk.n_ends, sk.op, sk.nx, heads, labels)
        hg = h_gamma(lsk)
        radical, expected_T = radical_and_quotient(IntLattice(hg.gram))
        cycles = kernel_cycles(lsk)
        T, got, _, route = run(lsk, hg)
        assert T.gram_rows() == expected_T.gram_rows()
        if cycles:
            U = transpose([[x for a, _ in lsk.edges for x in c[2 * a:2 * a + 2]]
                           for c in cycles])
            expected = (radical[0] and
                        _saturation(U) == column_lattice_hnf(mat_mul(hg.kernel, radical)))
        else:
            expected = not radical[0]
        assert got == bool(expected)
        seen[got, bool(cycles)] += 1
        routes[route, got] += 1
    assert seen[True, True] and seen[False, True] and seen[True, False], seen
    assert routes["cycles", True] >= 200, routes
    assert routes["gram", True] and routes["gram", False], routes


def test_span_check_field_meaning(monkeypatch):
    """On labelled input `transcendental_lattice`'s spans is true when the
    cycles span the radical up to finite index, and false when one of them
    is off it; both mutations leave the cycles' span unproven, so the
    radical is then the Gram kernel's and T does not change."""
    sk, leaves = tree_to_skeleton(enumerate_marked_trees(3)[0])
    lsk = insert_E_fiber(from_skeleton(sk, orientation_for_series(sk, leaves, "th1.2")),
                         2, "E8", 0)
    hg = h_gamma(lsk)
    coordinates = homology.kernel_coordinates
    run = route_spy(monkeypatch)
    T, spans, radical, route = run(lsk, hg)
    assert radical and spans and route == "cycles"
    off = next({j: 1} for j, row in enumerate(hg.gram) if any(row))
    doubled = (lambda xs: [{j: 2 * y for j, y in xs[0].items()}] + xs[1:], True)
    for mutate, expected in (doubled, (lambda xs: [off] + xs[1:], False)):
        monkeypatch.setattr(homology, "kernel_coordinates",
                            lambda K, vs, mutate=mutate: mutate(coordinates(K, vs)))
        assert run(lsk, hg) == (T, expected, radical, "gram")


def test_region_cohomology_types():
    rng = random.Random(59)
    for _ in range(12):
        sk = random_skeleton(rng, 2)
        lsk = from_skeleton(sk, default_orientation(sk))
        types, _, _ = fiber_types(lsk)
        for reg in lsk.regions:
            inv = region_cohomology(lsk, reg)
            ft = types[reg]
            n = reg.size
            if ft.kind == "A":
                expected = () if n == 1 else (n,)
            else:
                expected = (4,) if n % 2 else (2, 2)
            assert inv.torsion == expected
            # matches the discriminant group of the fiber root lattice
            d = discriminant(root_lattice(ft))
            assert inv.torsion == d.invariants.torsion


def region_cohomology_per_step(lsk, region):
    """Oracle: the region cohomology with one H* copy per step of the
    region walk, two per end, as the dense cokernel of its relations."""
    steps = [m for _, m in region_steps(lsk, region.cycle)]
    N = len(steps)
    R = []
    for i, m in enumerate(steps):
        for c, (a, b) in enumerate(m):
            row = [0] * (2 * N)
            row[2 * ((i + 1) % N) + c] += 1
            row[2 * i] -= a
            row[2 * i + 1] -= b
            R.append(row)
    return cokernel_invariants(R)


def test_region_cohomology_matches_per_step_walk():
    """One position per end, each op lift folded into the -X step after it,
    gives the group of the walk with one position per step, free rank and
    torsion, region by region: on the route cases and the labelled cases,
    one-end regions included."""
    seen = Counter()
    for lsk in chain(_route_cases(), _labelled_cases()):
        for reg in lsk.regions:
            got = region_cohomology(lsk, reg)
            assert got == region_cohomology_per_step(lsk, reg), (lsk, reg)
            seen[reg.size == 1, got.free_rank > 0] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_surface_invariants_k1():
    lsk = from_skeleton(PSEUDOTREE_K1, k1_all_A_orientation())
    inv = trivalent_invariants(lsk).surface
    assert (inv.k, inv.t, inv.g) == (1, 1, 0)
    assert inv.chi == 12
    assert inv.sigma_plus == 1
    assert inv.sigma_minus == 9
    assert inv.mu == 8
    assert inv.rank_T == 0
    assert inv.rank_ker == 2


def test_surface_invariants_torus_theta():
    sk = THETA_TORUS
    # find an orientation with k+t even (always true) and check r with g=1
    lsk = from_skeleton(sk, default_orientation(sk))
    inv = trivalent_invariants(lsk).surface
    assert inv.g == 1
    assert inv.r == 1


def test_transcendental_lattice_positive_definite():
    rng = random.Random(61)
    for _ in range(15):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        lsk = from_skeleton(sk, default_orientation(sk))
        inv = trivalent_invariants(lsk)
        assert inv.T.rank == inv.surface.rank_T
        if inv.T.rank:
            assert inv.T.is_positive_definite()


def test_reorient_invariance():
    rng = random.Random(67)
    for _ in range(8):
        sk = random_skeleton(rng, 2)
        o = default_orientation(sk)
        base = trivalent_invariants(from_skeleton(sk, o))
        nv = sk.n_ends // 3
        for bits in range(2**nv):
            subset = [v for v in range(nv) if bits >> v & 1]
            o2 = reorient(sk, o, subset)
            inv = trivalent_invariants(from_skeleton(sk, o2))
            assert is_isometric(base.T, inv.T)
            assert inv.mw == base.mw


def test_engine_has_no_assert_statements():
    """The package's checks raise explicitly, so `python -O` keeps them
    (and the CLI's exit code 4)."""
    paths = sorted(Path(ellskel.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text())
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"
