import random
from fractions import Fraction

import pytest

from ellskel import exact, lattices
from ellskel.exact import identity, mat_eq, mat_mul, snf_diagonal, transpose
from ellskel.lattices import (
    IntLattice,
    RatLattice,
    congruence_sublattice,
    discriminant,
    is_isometric,
    modified_form,
    orthogonal_complement,
    radical_and_quotient,
    short_vectors,
    standard_lattice,
)


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
        assert rad == n - exact.rank(G)
        assert Q.rank == exact.rank(G)
        if Q.rank:
            assert Q.det() != 0


def test_discriminant_forms():
    d = discriminant(standard_lattice("A", 1))
    assert d.invariants.torsion == (2,)
    assert d.quadratic == (Fraction(1, 2),)
    assert discriminant(standard_lattice("U", 2)).invariants.is_trivial()
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


def test_orthogonal_complement_saturated():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 5)
        L = IntLattice(identity(n))
        v = [rng.randint(-4, 4) for _ in range(n)]
        if not any(v):
            v[0] = 1
        w = v[:]  # functional equals vector for the identity form
        K = exact.integer_kernel([w])
        assert all(d == 1 for d in snf_diagonal(K))


def test_modified_form():
    L = standard_lattice("V", 2)
    M = modified_form(L, [3, 1], 0)
    assert M.gram_rows() == [[1, 0], [0, 1]]
    M = modified_form(L, [3, 1], Fraction(1, 4))
    assert M.gram_rows() == [
        [Fraction(13, 4), Fraction(3, 4)],
        [Fraction(3, 4), Fraction(5, 4)],
    ]


def test_congruence_sublattice():
    V2p = modified_form(standard_lattice("V", 2), [3, 1], Fraction(1, 4))
    L = congruence_sublattice(V2p, [3, 1], 4)
    assert L.rank == 2
    assert L.is_positive_definite()
    V2 = RatLattice(identity(2))
    assert congruence_sublattice(V2, [0, 0], 4).gram == ((1, 0), (0, 1))
    assert congruence_sublattice(RatLattice([]), [], 4).rank == 0
    # non-integral restriction must be rejected
    with pytest.raises(ValueError):
        congruence_sublattice(modified_form(standard_lattice("V", 2), [1, 1],
                                            Fraction(1, 4)), [1, 1], 3)


def test_congruence_index():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = [rng.randint(-6, 6) for _ in range(n)]
        m = rng.randint(1, 8)
        L = RatLattice(identity(n))
        S = congruence_sublattice(L, f, m)
        from math import gcd

        g = 0
        for x in f:
            g = gcd(g, x)
        expected = m // gcd(m, g) if g else 1
        # index = sqrt(det ratio) for the unmodified identity form
        assert S.det() == expected * expected


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


def test_is_isometric():
    A2 = standard_lattice("A", 2)
    P = IntLattice([[2, 1], [1, 2]])
    ok, U = is_isometric(A2, P, witness=True)
    assert ok
    assert mat_eq(mat_mul(transpose(U), mat_mul(P.gram_rows(), U)),
                  A2.gram_rows())
    assert not is_isometric(standard_lattice("D", 2), A2)
    # same det, same rank, not isometric: diag(1,16) vs diag(4,4)
    assert not is_isometric(IntLattice([[1, 0], [0, 16]]),
                            IntLattice([[4, 0], [0, 4]]))
    # radicals compared by rank
    assert not is_isometric(IntLattice([[1, 0], [0, 0]]),
                            IntLattice([[1, 0], [0, 1]]))
    assert is_isometric(IntLattice([]), IntLattice([]))


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
        assert mat_eq(mat_mul(transpose(W), mat_mul(G, W)), L.gram_rows())


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
        return all(exact.det([row[:k] for row in G[:k]]) > 0
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
