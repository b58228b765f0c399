import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from operator import mul

import pytest

from ellskel import exact, lattices
from ellskel.exact import identity, mat_mul, transpose
from ellskel.lattices import (
    IntLattice,
    congruence_sublattice,
    is_isometric,
    orthogonal_complement,
    restrict,
    short_vectors,
)

from test_exact import bareiss, dense_integer_kernel, det
from test_homology import discriminant, radical_and_quotient, rank


def standard_lattice(name, n):
    """`lattices.standard_lattice`, and the E_n (n = 6, 7, 8) and U Grams,
    which no analysis builds."""
    if name == "U":
        return IntLattice([[0, 1], [1, 0]])
    if name != "E":
        return lattices.standard_lattice(name, n)
    if n not in (6, 7, 8):
        raise ValueError("E_n needs n in {6,7,8}")
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2
    # chain 0-1-...-(n-2), extra node n-1 attached at position 2
    for i in range(n - 2):
        G[i][i + 1] = G[i + 1][i] = -1
    G[2][n - 1] = G[n - 1][2] = -1
    return IntLattice(G)


def test_standard_lattices():
    assert standard_lattice("A", 1).gram == ((2,),)
    assert standard_lattice("D", 2).gram == ((2, 0), (0, 2))
    assert standard_lattice("D", 0).rank == 0
    assert standard_lattice("D", 1).gram == ((4,),)
    assert standard_lattice("D", 3).gram == standard_lattice("A", 3).gram
    assert standard_lattice("W", 2).gram == ((1, 0), (0, 0))
    assert standard_lattice("U", 2).det() == -1
    assert standard_lattice("V", 3).gram == tuple(map(tuple, identity(3)))
    with pytest.raises(ValueError):
        standard_lattice("E", 5)
    with pytest.raises(ValueError):
        standard_lattice("A", 0)


def test_gram_must_be_square_and_symmetric():
    for G in [[1, 2], [3, 4]], [[1, 0], [0]], [[1, 0]]:
        with pytest.raises(ValueError, match="square and symmetric"):
            IntLattice(G)


def test_root_lattice_determinants():
    # classical values: det A_n = n+1, det D_n = 4, det E_n = 9-n
    for n in range(1, 7):
        assert standard_lattice("A", n).det() == n + 1
    for n in range(2, 8):
        assert standard_lattice("D", n).det() == 4
    for n in (6, 7, 8):
        assert standard_lattice("E", n).det() == 9 - n
        assert standard_lattice("E", n).is_positive_definite()


def test_radical_and_quotient():
    K, Q = radical_and_quotient(IntLattice([[1, 0], [0, 0]]))
    assert transpose(K) == [[0, 1]]
    assert Q.gram == ((1,),)
    L = standard_lattice("A", 2)
    K, Q = radical_and_quotient(L)
    assert K == [[], []]
    assert Q.gram == L.gram
    # rank-2 radical, rank-0 quotient
    K, Q = radical_and_quotient(IntLattice([[0, 0], [0, 0]]))
    assert Q.rank == 0


def test_radical_quotient_randomized():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        # build a rank n-r form conjugated by a unimodular matrix
        D = [[0] * n for _ in range(n)]
        for i in range(n - r):
            D[i][i] = rng.randint(1, 4)
        U = identity(n)
        for _ in range(10):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                q = rng.randint(-2, 2)
                U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        G = mat_mul(transpose(U), mat_mul(D, U))
        K, Q = radical_and_quotient(IntLattice(G))
        rad = len(K[0]) if K and K[0] else 0
        assert rad == n - rank(G)
        assert Q.rank == rank(G)
        if Q.rank:
            assert Q.det() != 0


def test_discriminant_forms():
    d = discriminant(standard_lattice("A", 1))
    assert d.invariants.torsion == (2,)
    assert d.quadratic == (Fraction(1, 2),)
    assert discriminant(standard_lattice("U", 2)).invariants.order == 1
    d = discriminant(standard_lattice("A", 2))
    assert d.invariants.torsion == (3,)
    assert d.bilinear[0][0] == Fraction(2, 3)
    # degenerate input uses the quotient
    d = discriminant(IntLattice([[2, 0], [0, 0]]))
    assert d.invariants.torsion == (2,)


def test_discriminant_group_order_matches_det():
    for name, n in [("A", 3), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7)]:
        L = standard_lattice(name, n)
        assert discriminant(L).order == abs(L.det())


def test_discriminant_of_D_series():
    # discr D_n: Z/4 for n odd, (Z/2)^2 for n even
    for n in range(2, 9):
        t = discriminant(standard_lattice("D", n)).invariants.torsion
        assert t == ((4,) if n % 2 else (2, 2))


def test_orthogonal_complement():
    L = standard_lattice("V", 1)
    assert orthogonal_complement(L, [3]).rank == 0
    L = standard_lattice("V", 2)
    assert orthogonal_complement(L, [0, 1]).gram == ((1,),)
    L = standard_lattice("V", 3)
    C = orthogonal_complement(L, [3, 3, 1])
    assert C.rank == 2
    assert C.det() == 19
    assert is_isometric(C, IntLattice([[2, -1], [-1, 10]]))
    with pytest.raises(ValueError):
        orthogonal_complement(L, [0, 0, 0])


def complement_matches(G, v, C):
    """C is the Gram K^t G K of the canonical saturated basis K of
    {x : v^t G x = 0}, of rank n - 1; K comes from the dense kernel oracle,
    not from the sparse engine."""
    n = len(G)
    w = exact.mat_vec(G, v)
    K = dense_integer_kernel([w])
    if len(K[0]) != n - 1 or any(exact.mat_vec([w], col)[0] for col in transpose(K)):
        raise AssertionError(f"oracle kernel of {w} is wrong")
    if exact.smith_form(K)[0] != [1] * (n - 1):
        raise AssertionError(f"oracle kernel of {w} is not saturated")
    return len(C) == n - 1 and [list(r) for r in C] == congruent(G, K)


def test_orthogonal_complement_saturated():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 5)
        # a seeded positive definite Gram, A^t A + I, never the identity
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        A[0][n - 1] = A[0][n - 1] or 1
        G = [[x + (i == j) for j, x in enumerate(r)]
             for i, r in enumerate(mat_mul(transpose(A), A))]
        assert G != identity(n) and IntLattice(G).is_positive_definite()
        v = [rng.randint(-4, 4) for _ in range(n)]
        if not any(v):
            v[0] = 1
        C = orthogonal_complement(IntLattice(G), v)
        assert C.rank == n - 1
        assert complement_matches(G, v, C.gram)
        # the doubled basis 2K spans a non-saturated sublattice: its Gram
        # 4 K^t G K is rejected
        doubled = [[4 * x for x in r] for r in C.gram]
        assert not complement_matches(G, v, doubled)


def test_congruence_sublattice():
    # 4 * (I + f f^t / 4) for f = (3, 1)
    V2p = IntLattice([[13, 3], [3, 5]])
    L = congruence_sublattice(V2p, [3, 1], 4, 4)
    assert L.rank == 2
    assert L.is_positive_definite()
    # {x : 3 x_1 + x_2 = 0 mod 4} has the basis (1, 1), (0, 4)
    assert L.gram == ((6, 8), (8, 20))
    V2 = IntLattice(identity(2))
    assert congruence_sublattice(V2, [0, 0], 4, 1).gram == ((1, 0), (0, 1))
    assert congruence_sublattice(IntLattice([]), [], 4, 4).rank == 0
    # non-integral restriction must be rejected
    with pytest.raises(ValueError, match="not integral"):
        congruence_sublattice(IntLattice([[5, 1], [1, 5]]), [1, 1], 3, 4)


def test_congruence_index():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = [rng.randint(-6, 6) for _ in range(n)]
        m = rng.randint(1, 8)
        L = IntLattice(identity(n))
        S = congruence_sublattice(L, f, m, 1)
        expected = m // gcd(m, *f)
        # index = sqrt(det ratio) for the unmodified identity form
        assert S.det() == expected * expected


def test_restrict_differential():
    """`restrict` against a dense B^t F B / scale, on random symmetric F and
    random B with zero rows, d = 0 and scales > 1; a scale that does not
    divide every entry, and an asymmetric F, raise ValueError."""
    rng = random.Random(89)
    assert restrict([], [], 3) == []
    assert restrict([{0: 2}, {1: 4}], [[], []], 2) == []
    not_integral = 0
    for _ in range(300):
        n, d = rng.randint(1, 7), rng.randint(0, 5)
        s = rng.choice((1, 2, 3, 6))
        F = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    F[i][j] = F[j][i] = s * rng.randint(-5, 5)
        B = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(d)]
             for _ in range(n)]
        B[rng.randrange(n)] = [0] * d
        dense = [[sum(B[i][a] * F[i][j] * B[j][b] for i in range(n) for j in range(n))
                  for b in range(d)] for a in range(d)]
        rows = exact.sparse(F)[0]
        assert restrict(rows, B, s) == [[x // s for x in r] for r in dense]
        q = 5 * s
        if any(x % q for r in dense for x in r):
            not_integral += 1
            with pytest.raises(ValueError, match="not integral"):
                restrict(rows, B, q)
        else:
            assert restrict(rows, B, q) == [[x // q for x in r] for r in dense]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[i].get(j, 0) + 1
            with pytest.raises(ValueError, match="not symmetric"):
                restrict(rows, B, s)
    assert not_integral > 50


def test_witness_check_raises(monkeypatch):
    """The isometry witness check, det(U^t U) = 1, raises AssertionError
    when it fails."""
    L1, L2 = IntLattice([[2, 1], [1, 2]]), IntLattice([[2, -1], [-1, 2]])
    for L in (L1, L2):  # cached, so the only pass left is the one on U^t U
        assert (L.det(), L.is_positive_definite()) == (3, True)
    lattices._target.cache_clear()
    monkeypatch.setattr(lattices, "symmetric_bareiss", lambda G: (4, True))
    with pytest.raises(AssertionError, match="isometry witness has det"):
        is_isometric(L1, L2)
    monkeypatch.undo()
    assert is_isometric(L1, L2)


def test_short_vectors():
    # A2 has 6 roots of norm 2
    G = standard_lattice("A", 2).gram_rows()
    roots = [v for v in short_vectors(G, 2)]
    assert len(roots) == 6
    # D4 has 24 roots
    G = standard_lattice("D", 4).gram_rows()
    assert len(short_vectors(G, 2)) == 24
    # E8 has 240 roots
    G = standard_lattice("E", 8).gram_rows()
    assert len(short_vectors(G, 2)) == 240


def fraction_short_vectors(G, bound):
    """Oracle: Fincke-Pohst over Fractions, in the order of `short_vectors`."""
    n = len(G)
    if n == 0:
        return []
    q = [[Fraction(G[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("short_vectors needs a positive definite Gram matrix")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    out = []
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            if any(x):
                out.append(list(x))
            return
        t = sum(q[i][j] * x[j] for j in range(i + 1, n))
        s = rem / q[i][i]
        r = isqrt(int(s)) + 2
        lo = -t - r
        hi = -t + r
        k = int(lo) - 1
        while k <= hi:
            val = q[i][i] * (k + t) ** 2
            if val <= rem:
                x[i] = k
                rec(i - 1, rem - val)
            k += 1
        x[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def test_short_vectors_differential():
    """The integer enumeration against the Fraction oracle (same vectors in
    the same order) and against a brute force over a box that holds every
    x of norm <= bound: x_i^2 <= bound (G^-1)_ii by Cauchy-Schwarz."""
    rng = random.Random(71)
    roots = [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5)]
    for case in range(80):
        if case % 2:
            n = rng.randint(1, 5)
            A = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(0, n))] + identity(n)
            G = mat_mul(transpose(A), A)
        else:
            G = standard_lattice(*rng.choice(roots)).gram_rows()
            n = len(G)
            G = congruent(G, random_unimodular(rng, n, steps=10, q=3))
        G, _, _ = lattices.lll_reduce(G)
        bound = rng.randint(1, 2 * max(G[i][i] for i in range(n)))
        got = short_vectors(G, bound)
        assert got == fraction_short_vectors(G, bound)
        minors = [det([r[:i] + r[i + 1:] for r in G[:i] + G[i + 1:]])
                  for i in range(n)]  # (G^-1)_ii = minors[i] / det G
        radii = [isqrt(bound * m // det(G)) for m in minors]
        box = [list(x) for x in product(*(range(-r, r + 1) for r in radii))
               if any(x) and sum(map(mul, x, exact.mat_vec(G, x))) <= bound]
        assert sorted(got) == sorted(box)
        assert len(got) == len(set(map(tuple, got)))
    with pytest.raises(ValueError):
        short_vectors([[1, 2], [2, 1]], 4)


def test_is_isometric():
    A2 = standard_lattice("A", 2)
    P = IntLattice([[2, 1], [1, 2]])
    ok, U = is_isometric(A2, P, witness=True)
    assert ok
    assert mat_mul(transpose(U), mat_mul(P.gram_rows(), U)) == A2.gram_rows()
    assert not is_isometric(standard_lattice("D", 2), A2)
    # same det, same rank, not isometric: diag(1,16) vs diag(4,4)
    assert not is_isometric(IntLattice([[1, 0], [0, 16]]),
                            IntLattice([[4, 0], [0, 4]]))
    # a degenerate lattice is told apart by its det
    assert not is_isometric(IntLattice([[1, 0], [0, 0]]),
                            IntLattice([[1, 0], [0, 1]]))
    assert is_isometric(IntLattice([]), IntLattice([]))


def test_is_isometric_takes_definite_lattices_only(monkeypatch):
    """A pair of equal rank and det with a form that is not positive
    definite raises ValueError, and a pair whose dets differ is rejected
    before any lattice is reduced."""
    pairs = [
        ([[1, 0], [0, 0]], [[0, 0], [0, 1]]),  # degenerate, det 0
        ([[0, 1], [1, 0]], [[1, 0], [0, -1]]),  # indefinite, det -1
    ]
    for G1, G2 in pairs:
        lattices._target.cache_clear()
        with pytest.raises(ValueError, match="definite lattices only"):
            is_isometric(IntLattice(G1), IntLattice(G2))
    reductions = []
    original = lattices.lll_reduce

    def spy(G):
        reductions.append(G)
        return original(G)

    monkeypatch.setattr(lattices, "lll_reduce", spy)
    lattices._target.cache_clear()
    A2_A1 = standard_lattice("A", 2).direct_sum(IntLattice([[2]]))
    assert not is_isometric(standard_lattice("A", 3), A2_A1)  # det 4 vs 6
    assert not is_isometric(IntLattice([[1, 0], [0, 0]]), IntLattice([[2]]))
    assert not is_isometric(IntLattice([[0, 1], [1, 0]]), IntLattice([[1, 0], [0, 1]]))
    assert reductions == []


def test_is_isometric_randomized_conjugates():
    rng = random.Random(31)
    for _ in range(25):
        name, n = rng.choice([("A", 2), ("A", 3), ("D", 4), ("A", 4)])
        L = standard_lattice(name, n)
        U = identity(n)
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-2, 2)
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        G = mat_mul(transpose(U), mat_mul(L.gram_rows(), U))
        ok, W = is_isometric(L, IntLattice(G), witness=True)
        assert ok
        assert mat_mul(transpose(W), mat_mul(G, W)) == L.gram_rows()


def test_is_isometric_distinguishes_root_lattices():
    A4 = standard_lattice("A", 4)
    D4 = standard_lattice("D", 4)
    assert not is_isometric(A4, D4)
    # det 4 pair with different root systems: D4 vs diag(2,2) + A1 + A1
    L = standard_lattice("D", 2).direct_sum(standard_lattice("D", 2))
    assert not is_isometric(D4, L)


def test_positive_definite_matches_leading_minors():
    """One Bareiss pass against Sylvester's criterion minor by minor."""

    def by_minors(L):
        G = L.gram_rows()
        return all(det([row[:k] for row in G[:k]]) > 0
                   for k in range(1, L.rank + 1))

    rng = random.Random(58)
    kinds = {"definite": 0, "semidefinite": 0, "indefinite": 0}
    for _ in range(150):
        n = rng.randint(1, 6)
        A = [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(1, n + 2))]
        kind = rng.choice(sorted(kinds))
        if kind == "definite":
            A += identity(n)  # full column rank, so A^t A is definite
            G = mat_mul(transpose(A), A)
        elif kind == "semidefinite":
            A = A[: n - 1] or [[0]]  # rank below n
            G = mat_mul(transpose(A), A)
        else:
            S = [[rng.choice((1, -1)) if i == j else 0 for j in range(len(A))]
                 for i in range(len(A))]
            G = mat_mul(transpose(A), mat_mul(S, A))
        L = IntLattice(G)
        expected = by_minors(L)
        assert L.is_positive_definite() == expected, G
        kinds[kind] += expected
    assert kinds["definite"] > 0 and kinds["semidefinite"] == 0
    assert IntLattice(()).is_positive_definite()
    # a zero leading entry with a definite-looking rest is still rejected
    assert not IntLattice([[0, 1], [1, 2]]).is_positive_definite()
    assert not IntLattice([[2, 0], [0, 0]]).is_positive_definite()


def random_unimodular(rng, n, steps=8, q=2):
    U = identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-q, q)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U


def congruent(G, U):
    return mat_mul(transpose(U), mat_mul(G, U))


def test_lll_reduce_property():
    """T^t G T = G', det T = +-1, the tracked T^-1 is T's inverse, and G'
    is size-reduced and Lovasz-reduced for delta = 99/100, with d_k and
    lambda_kl recomputed by a Fraction Gram-Schmidt of G'."""
    rng = random.Random(67)
    roots = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    roots += [("E", 6), ("E", 7), ("E", 8)]
    swaps = 0
    for case in range(240):
        if case % 2:
            n = rng.randint(1, 8)
            A = [[rng.randint(-4, 4) for _ in range(n)]
                 for _ in range(rng.randint(0, n + 2))] + identity(n)
            G = mat_mul(transpose(A), A)
        else:  # a root lattice in a skewed basis
            G = standard_lattice(*rng.choice(roots)).gram_rows()
            n = len(G)
            G = congruent(G, random_unimodular(rng, n, steps=12, q=3))
        Gr, T, Tinv = lattices.lll_reduce(G)
        assert congruent(G, T) == Gr
        assert det(T) in (1, -1)
        assert mat_mul(T, Tinv) == identity(n) == mat_mul(Tinv, T)
        swaps += T != identity(n)
        B, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                mu[i][j] = (Gr[i][j] - sum(mu[j][h] * mu[i][h] * B[h]
                                           for h in range(j))) / B[j]
            B.append(Gr[i][i] - sum((mu[i][h] ** 2 * B[h] for h in range(i)),
                                    Fraction(0)))
        d = [1]  # d[l + 1] is the leading minor of order l + 1
        for b in B:
            d.append(d[-1] * b)
        assert all(x.denominator == 1 and x > 0 for x in d)
        for k in range(1, n):
            lam = [mu[k][l] * d[l + 1] for l in range(k)]
            assert all(x.denominator == 1 for x in lam)
            assert all(abs(2 * lam[l]) <= d[l + 1] for l in range(k))
            assert (100 * d[k + 1] * d[k - 1]
                    >= 99 * d[k] ** 2 - 100 * lam[k - 1] ** 2)
    assert swaps > 100
    assert lattices.lll_reduce([]) == ([], [], [])
    for G in [[0]], [[-3]], [[-1, 0], [0, -1]], [[1, 2], [2, 1]]:
        with pytest.raises(ValueError):
            lattices.lll_reduce(G)


def test_cached_invariants_stay_out_of_equality():
    G = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    L = IntLattice(G)
    assert (L.det(), L.is_positive_definite()) == (18, True)
    fresh = IntLattice(G)
    assert L == fresh and hash(L) == hash(fresh) and repr(L) == repr(fresh)
    assert fresh != IntLattice([[2, 1, 0], [1, 3, 1], [0, 1, 5]])
    # the determinant and the definiteness come from one pass
    for one_pass in (bareiss, lattices.symmetric_bareiss):
        assert one_pass(G) == (18, True)
        assert one_pass([[0, 1], [1, 0]]) == (-1, False)
        assert one_pass([[1, 2], [2, 1]]) == (-3, False)
        assert one_pass([]) == (1, True)
    # a second query against an equal target hits _target's cache
    lattices._target.cache_clear()
    assert is_isometric(IntLattice(G), fresh)
    info = lattices._target.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert is_isometric(fresh, L)
    info = lattices._target.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_isometry_target_reuse(monkeypatch):
    """Queries against one L2 in several orders, sharing its cached target:
    the verdicts equal those of a cold cache, every witness holds, and the
    short vectors are enumerated again only when a query needs a larger
    bound than any before it."""
    rng = random.Random(73)
    base = [[2, 0, 0], [0, 2, 0], [0, 0, 6]]
    L2 = IntLattice(congruent(base, random_unimodular(rng, 3)))
    queries = [  # (Gram, isometric to L2); every one has rank 3 and det 24
        (congruent(base, random_unimodular(rng, 3)), True),
        (congruent(base, random_unimodular(rng, 3)), True),
        ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], False),
        ([[2, -1, 0], [-1, 2, 0], [0, 0, 8]], False),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 24]], False),
        ([[1, 0, 0], [0, 4, 0], [0, 0, 6]], False),
        (base, True),
    ]
    for G, expected in queries:  # each against a cold cache
        lattices._target.cache_clear()
        assert is_isometric(IntLattice(G), L2) == expected
    bounds = []
    original = lattices.short_vectors

    def spy(G, bound):
        bounds.append(bound)
        return original(G, bound)

    monkeypatch.setattr(lattices, "short_vectors", spy)
    grew = False
    for order in range(6):
        lattices._target.cache_clear()
        bounds.clear()
        perm = list(range(len(queries)))
        rng.shuffle(perm)
        if order == 0:  # a small bound first, then a larger one
            perm.sort(key=lambda i: max(queries[i][0][j][j] for j in range(3)))
        for i in perm:
            G, expected = queries[i]
            ok, U = is_isometric(IntLattice(G), L2, witness=True)
            assert ok == expected
            if ok:
                assert congruent(L2.gram_rows(), U) == G
                assert det(U) in (1, -1)
            assert lattices._target(L2).bound == max(bounds)
        assert bounds == sorted(set(bounds))
        seen = len(bounds)
        grew |= len(bounds) > 1
        # the same queries again reuse the target and enumerate nothing
        for G, expected in queries:
            assert is_isometric(IntLattice(G), L2) == expected
        assert len(bounds) == seen
    assert grew
