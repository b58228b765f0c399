import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellskel import exact
from ellskel.exact import (
    AbelianInvariants,
    cokernel_invariants,
    det,
    hermite_normal_form,
    identity,
    integer_kernel,
    mat_eq,
    mat_mul,
    smith_normal_form,
    snf_diagonal,
    solve_columns,
    transpose,
    unimodular_inverse,
    zeros,
)


def naive_row_reduce(M):
    """Independent echelon oracle: gcd-based elimination, no transform tracking."""
    import math

    M = [list(r) for r in M]
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if M[i][j] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, m):
            while M[i][j] != 0:
                if abs(M[i][j]) < abs(M[r][j]):
                    M[r], M[i] = M[i], M[r]
                q = M[i][j] // M[r][j]
                M[i] = [a - q * b for a, b in zip(M[i], M[r])]
        if M[r][j] < 0:
            M[r] = [-a for a in M[r]]
        for i in range(r):
            q = M[i][j] // M[r][j]
            M[i] = [a - q * b for a, b in zip(M[i], M[r])]
        r += 1
    return M


def rand_matrix(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def rand_unimodular(rng, n, steps=12):
    U = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    if rng.random() < 0.5:
        rng.shuffle(U)
    return U


def test_hnf_identity_and_zero():
    H, U = hermite_normal_form(identity(2))
    assert mat_eq(H, identity(2)) and mat_eq(U, identity(2))
    Z = zeros(3, 2)
    H, U = hermite_normal_form(Z)
    assert mat_eq(H, Z)
    assert abs(det(U)) == 1


def test_hnf_small_example():
    M = [[2, 4], [1, 3]]
    H, U = hermite_normal_form(M)
    assert mat_eq(mat_mul(U, M), H)
    assert abs(det(U)) == 1
    # fully reduced row-style form of [[2,4],[1,3]]
    assert H == [[1, 1], [0, 2]]
    oracle = naive_row_reduce(M)
    assert H == oracle


def test_hnf_matches_naive_oracle_randomized():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = rand_matrix(rng, m, n)
        H, U = hermite_normal_form(M)
        assert mat_eq(mat_mul(U, M), H)
        assert abs(det(U)) == 1
        assert H == naive_row_reduce(M)


def test_snf_examples():
    S, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert S == [[1, 0], [0, 6]]
    S, U, V = smith_normal_form(identity(3))
    assert S == identity(3)
    S, U, V = smith_normal_form(zeros(2, 2))
    assert S == zeros(2, 2)


def test_snf_transforms_and_divisibility_randomized():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = rand_matrix(rng, m, n, -9, 9)
        S, U, V = smith_normal_form(M)
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        assert mat_eq(mat_mul(mat_mul(U, M), V), S)
        d = [S[i][i] for i in range(min(m, n))]
        assert all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a != 0:
                assert b % a == 0 or b == 0
            else:
                assert b == 0


def test_snf_invariant_under_unimodular_factors():
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = rand_matrix(rng, m, n)
        A = rand_unimodular(rng, m)
        B = rand_unimodular(rng, n)
        assert snf_diagonal(M) == snf_diagonal(mat_mul(mat_mul(A, M), B))


def test_kernel_examples():
    K = integer_kernel([[1, 1]])
    assert transpose(K) in ([[1, -1]], [[-1, 1]])
    K = integer_kernel(identity(3))
    assert K == [[], [], []]
    # zero map: kernel is everything
    K = integer_kernel(zeros(2, 3))
    assert transpose(K) == identity(3)


def test_kernel_annihilated_and_saturated():
    rng = random.Random(17)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        M = rand_matrix(rng, m, n)
        K = integer_kernel(M)
        cols = len(K[0]) if K and K[0] else 0
        if cols:
            assert all(all(x == 0 for x in row) for row in mat_mul(M, K))
            # saturation: SNF divisors of the basis matrix are all 1
            assert all(d == 1 for d in snf_diagonal(K))
        assert cols == n - exact.rank(M)


def test_cokernel_examples():
    assert cokernel_invariants(identity(2)) == AbelianInvariants(0, ())
    assert cokernel_invariants([[2, 0], [0, 6]]) == AbelianInvariants(0, (2, 6))
    assert cokernel_invariants(zeros(2, 3)) == AbelianInvariants(3, ())
    assert cokernel_invariants([[1, 1]]) == AbelianInvariants(1, ())


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 6))
    g = AbelianInvariants(0, (2, 6))
    assert g.order == 12
    assert g.primary_decomposition() == (2, 2, 3)
    assert AbelianInvariants(1).order is None


def test_det_against_expansion():
    rng = random.Random(19)

    def perm_det(M):
        import itertools

        n = len(M)
        total = 0
        for p in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if p[i] > p[j]:
                        sign = -sign
            prod = 1
            for i in range(n):
                prod *= M[i][p[i]]
            total += sign * prod
        return total

    for _ in range(100):
        n = rng.randint(1, 4)
        M = rand_matrix(rng, n, n)
        assert det(M) == perm_det(M)
    assert det([[0] * 0 for _ in range(0)]) == 1 or det([]) == 1


def test_unimodular_inverse():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        U = rand_unimodular(rng, n)
        Ui = unimodular_inverse(U)
        assert mat_eq(mat_mul(U, Ui), identity(n))


def test_solve_columns():
    A = [[1, 0], [0, 2], [3, 1]]
    B = mat_mul(A, [[2, -1], [5, 0]])
    X = solve_columns(A, B)
    assert X == [[2, -1], [5, 0]]
    with pytest.raises(ValueError):
        solve_columns([[2]], [[3]])
    with pytest.raises(ValueError):
        solve_columns([[1], [0]], [[0], [1]])


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hnf_idempotent(m, n, seed):
    rng = random.Random(seed)
    M = rand_matrix(rng, m, n)
    H, _ = hermite_normal_form(M)
    H2, _ = hermite_normal_form(H)
    assert H == H2


# ---------------------------------------------------------------------------
# the sparse unit-pivot front end against the dense normal forms


def dense_integer_kernel(M):
    """Oracle: kernel rows of the HNF transform of M^t, HNF-canonicalized."""
    m, n = exact.shape(M)
    if n == 0:
        return []
    H, U = hermite_normal_form(transpose(M))
    kernel_rows = [U[i] for i in range(n) if not any(H[i])]
    if not kernel_rows:
        return [[] for _ in range(n)]
    canon, _ = hermite_normal_form(kernel_rows)
    return transpose([row for row in canon if any(row)])


def dense_cokernel_invariants(M):
    """Oracle: the SNF of the whole of M."""
    m, n = exact.shape(M)
    nonzero = [d for d in snf_diagonal(M) if d != 0]
    return AbelianInvariants(n - len(nonzero), tuple(d for d in nonzero if d > 1))


def sparse_matrix(rng, m, n, density, values):
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]


_BLOCKS = (((1, 0), (0, 1)), ((-1, 1), (-1, 0)), ((0, -1), (1, -1)),
           ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((1, 3), (0, 1)))


def block_relation_matrix(rng, rows, cols):
    """Block rows touching at most three 2x2 blocks, like a relation matrix."""
    M = zeros(2 * rows, 2 * cols)
    for r in range(rows):
        for c in rng.sample(range(cols), min(cols, rng.randint(1, 3))):
            blk = rng.choice(_BLOCKS)
            sign = rng.choice((1, -1))
            for i in range(2):
                for j in range(2):
                    M[2 * r + i][2 * c + j] += sign * blk[i][j]
    return M


def zero_out(rng, M):
    """Zero a few whole rows and columns."""
    m, n = exact.shape(M)
    M = [list(r) for r in M]
    for i in rng.sample(range(m), rng.randint(0, m // 2)):
        M[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, n // 2)):
        for row in M:
            row[j] = 0
    return M


def differential_cases():
    rng = random.Random(4041)
    cases = []
    for _ in range(40):  # sparse, several units per row
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        cases.append(sparse_matrix(rng, m, n, 0.5, (1, -1, 1, -1, 2, -3)))
    for _ in range(30):  # zero rows and zero columns
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(zero_out(rng, rand_matrix(rng, m, n, -2, 2)))
    for _ in range(30):  # no unit entries at all
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(sparse_matrix(rng, m, n, 0.6, (2, -2, 3, -4, 6, 9)))
    for _ in range(30):  # dense Gram-like: A^t A and A^t S A
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(rng, k, n, -3, 3)
        S = [[rng.choice((-1, 1)) if i == j else 0 for j in range(k)] for i in range(k)]
        cases.append(mat_mul(transpose(A), mat_mul(S, A)))
    for _ in range(30):  # block rows as in the relation matrices
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(block_relation_matrix(rng, rows, cols))
    return cases


def test_sparse_kernel_matches_dense_oracle():
    for M in differential_cases():
        K = integer_kernel(M)
        assert K == dense_integer_kernel(M), M
        if K and K[0]:
            assert all(x == 0 for row in mat_mul(M, K) for x in row)


def test_sparse_cokernel_matches_dense_snf():
    for M in differential_cases():
        assert cokernel_invariants(M) == dense_cokernel_invariants(M), M
        assert cokernel_invariants(transpose(M)) == dense_cokernel_invariants(
            transpose(M)), M


def test_sparse_cokernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for M in differential_cases():
        m, n = exact.shape(M)
        S = sympy_snf(sympy.Matrix(m, n, [x for row in M for x in row]),
                      domain=sympy.ZZ)
        diag = sorted(abs(int(S[i, i])) for i in range(min(m, n)) if S[i, i] != 0)
        expected = AbelianInvariants(n - len(diag), tuple(d for d in diag if d > 1))
        assert cokernel_invariants(M) == expected, M


def test_sparse_front_end_empty_shapes():
    # 0 x n: a list of no rows carries no column count
    assert integer_kernel([]) == dense_integer_kernel([]) == []
    assert cokernel_invariants([]) == AbelianInvariants(0)
    # m x 0
    M = [[], [], []]
    assert integer_kernel(M) == dense_integer_kernel(M) == []
    assert cokernel_invariants(M) == dense_cokernel_invariants(M)
    assert cokernel_invariants(M) == AbelianInvariants(0)
    # all-zero matrices: everything is free, the kernel is the identity
    assert cokernel_invariants(zeros(3, 4)) == AbelianInvariants(4)
    assert transpose(integer_kernel(zeros(3, 4))) == identity(4)


def test_eliminate_units_residual():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 8)
        # unimodular with a ±1 pivot in every column after reordering
        U = [[rng.choice((1, -1)) if i == j else 0 for j in range(n)]
             for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                U[i][j] = rng.randint(-4, 4)
        rng.shuffle(U)
        pivots, rest, residual = exact._eliminate_units(U)
        assert len(pivots) == n and rest == [] and residual == []
    # no unit anywhere: nothing is eliminated
    M = [[2, 4], [6, 3]]
    pivots, rest, residual = exact._eliminate_units(M)
    assert pivots == [] and rest == [0, 1] and residual == M
    # the residual keeps only the surviving columns, in order
    pivots, rest, residual = exact._eliminate_units([[1, 2, 4], [3, 6, 10]])
    assert [c for c, _, _ in pivots] == [0] and rest == [1, 2]
    assert residual == [[0, -2]]
