import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellskel import exact
from ellskel.exact import (
    AbelianInvariants,
    cokernel_invariants,
    hermite_form,
    identity,
    integer_kernel,
    kernel_coordinates,
    mat_mul,
    transpose,
    zeros,
)
from ellskel.homology import relation_matrix
from ellskel.lattices import symmetric_bareiss

from test_homology import _route_cases, rank, smith_normal_form, unimodular_inverse


def bareiss(M):
    """Oracle: (det M, whether every leading principal minor of M is
    positive), by one fraction-free elimination of the whole matrix
    (Bareiss, Math. Comp. 22, 1968).  Without row swaps the pivot of step k
    is the leading principal minor of order k + 1, so a swap or a pivot
    <= 0 decides the second (Sylvester's criterion for symmetric M)."""
    m, n = exact.shape(M)
    if m != n:
        raise ValueError("matrix is not square")
    A = [list(r) for r in M]
    sign = prev = 1
    minors_positive = True
    for k in range(n):
        minors_positive = minors_positive and A[k][k] > 0
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return 0, False
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p = A[k][k]
        for i in range(k + 1, n):
            a = A[i][k]
            A[i][k + 1:] = [(x * p - a * y) // prev
                            for x, y in zip(A[i][k + 1:], A[k][k + 1:])]
        prev = p
    return sign * prev, minors_positive


def det(M):
    """Oracle: the exact determinant, from `bareiss`."""
    return bareiss(M)[0]


def hermite_normal_form(M):
    """Oracle: the dense row-style Hermite form with its transform, (H, U)
    with H = U*M and U unimodular, by the rules of `exact.hermite_form`."""
    H = [list(r) for r in M]
    m, n = exact.shape(H)
    U = identity(m)
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, m) if H[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(H[i][j]))
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            if len(nz) == 1:
                break
            done = True
            for i in range(r + 1, m):
                if H[i][j] != 0:
                    q = H[i][j] // H[r][j]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    done = done and H[i][j] == 0
            if done:
                break
        if r < m and H[r][j] != 0:
            if H[r][j] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][j] // H[r][j]
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    return H, U


def naive_row_reduce(M):
    """Independent echelon oracle: gcd-based elimination, no transform tracking."""
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
    assert H == identity(2) and U == identity(2)
    assert hermite_form(identity(2)) == H
    Z = zeros(3, 2)
    H, U = hermite_normal_form(Z)
    assert H == Z
    assert abs(det(U)) == 1
    assert hermite_form(Z) == H


def test_hnf_small_example():
    M = [[2, 4], [1, 3]]
    H, U = hermite_normal_form(M)
    assert mat_mul(U, M) == H
    assert abs(det(U)) == 1
    # fully reduced row-style form of [[2,4],[1,3]]
    assert H == [[1, 1], [0, 2]]
    oracle = naive_row_reduce(M)
    assert H == oracle
    assert hermite_form(M) == H


def test_hnf_matches_naive_oracle_randomized():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = rand_matrix(rng, m, n)
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H
        assert abs(det(U)) == 1
        assert H == naive_row_reduce(M)
        assert hermite_form(M) == H


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
        assert mat_mul(mat_mul(U, M), V) == S
        d = [S[i][i] for i in range(min(m, n))]
        assert all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a != 0:
                assert b % a == 0 or b == 0
            else:
                assert b == 0


def smith_cases():
    """Inputs for the Smith replay: fixed cases for each rule, random dense
    ones (zero rows, m < n and m > n), ones without a unit entry, and
    column HNF bases like the radicals."""
    rng = random.Random(83)
    cases = [
        [[2, 0], [0, 3]],  # 3 % 2: row 1 is added to row 0, then pivot 1
        [[2, 3]], [[2], [3]],  # a remainder becomes the pivot, clearing again
        [[-2]], [[0, -3], [0, 0]], [[-1, 0], [0, -4]],  # negative pivots
        [[4, 6, 10], [6, 9, 15]], [[0, 0], [2, 4], [0, 0]],
        zeros(2, 3), [], [[], []],
    ]
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = rand_matrix(rng, m, n, -9, 9)
        for i in rng.sample(range(m), rng.randint(0, m - 1)):
            M[i] = [0] * n
        cases.append(M)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(sparse_matrix(rng, m, n, 0.6, (2, -2, 3, -4, 6, 9, -10)))
    for _ in range(100):
        n = rng.randint(2, 9)
        B = exact.column_lattice_hnf(
            rand_matrix(rng, n, rng.randint(1, n - 1), -3, 3))
        if B:
            cases.append(B)
    return cases


def test_smith_replay_differential():
    """`exact.smith_form` against the dense oracle, which builds U and V:
    the same diagonal, which sympy's Smith form confirms, and the columns
    of U^-1 for the oracle's U."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    seen = Counter()
    for M in smith_cases():
        m, n = exact.shape(M)
        S, U, _ = smith_normal_form(M)
        d, W = exact.smith_form(M)
        assert d == [x for x in (S[i][i] for i in range(min(m, n))) if x], M
        Uinv = unimodular_inverse(U)
        assert W == [{i: r[c] for i, r in enumerate(Uinv) if r[c]}
                     for c in range(m)], M
        if m and n:
            Z = sympy_snf(sympy.Matrix(m, n, [x for row in M for x in row]),
                          domain=sympy.ZZ)
            assert d == sorted(abs(int(Z[i, i])) for i in range(min(m, n))
                               if Z[i, i]), M
        seen["non-unit"] += any(x > 1 for x in d)
        seen["m < n"] += m < n
        seen["m > n"] += m > n
        seen["zero row"] += any(not any(r) for r in M)
        seen["U moved"] += U != identity(m)
    assert min(seen.values()) >= 50, seen


def test_snf_invariant_under_unimodular_factors():
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = rand_matrix(rng, m, n)
        A = rand_unimodular(rng, m)
        B = rand_unimodular(rng, n)
        AMB = mat_mul(mat_mul(A, M), B)
        assert exact.smith_form(M)[0] == exact.smith_form(AMB)[0]


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
            assert exact.smith_form(K)[0] == [1] * cols
        assert cols == n - rank(M)


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
        assert mat_mul(U, Ui) == identity(n)


def dense_kernel_coordinates(K, v):
    """Oracle: the x with K x = v for one dense v, by a dense forward
    substitution on K's pivot rows and a dense check of K x = v."""
    x = []
    i = 0
    for j in range(len(K[0]) if K else 0):
        while K[i][j] == 0:
            i += 1
        q, r = divmod(v[i] - sum(a * b for a, b in zip(K[i][:j], x)), K[i][j])
        if r:
            raise ValueError("no integer solution")
        x.append(q)
    if exact.mat_vec(K, x) != list(v):
        raise ValueError("vector is not in the span of the columns")
    return x


def as_sparse(v):
    return {i: x for i, x in enumerate(v) if x}


def test_kernel_coordinates():
    rng = random.Random(29)
    solved = 0
    for M in differential_cases():
        K = integer_kernel(M)
        r = len(K[0]) if K and K[0] else 0
        xs = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(3)]
        got = kernel_coordinates(K, [as_sparse(exact.mat_vec(K, x)) for x in xs])
        assert got == [as_sparse(x) for x in xs], M
        solved += r > 0
    assert solved > 50
    # not an integer combination, and not in the span at all
    with pytest.raises(ValueError, match="no integer solution"):
        kernel_coordinates([[2]], [{0: 3}])
    with pytest.raises(ValueError, match="not in the span"):
        kernel_coordinates([[1], [0]], [{1: 1}])
    assert kernel_coordinates([[], []], [{}, {0: 0}]) == [{}, {}]
    with pytest.raises(ValueError, match="not in the span"):
        kernel_coordinates([[], []], [{1: 2}])


def _solvable(K, v):
    try:
        dense_kernel_coordinates(K, v)
    except ValueError:
        return False
    return True


def test_kernel_coordinates_differential():
    """The sparse solve against the dense oracle on vectors in the span
    and off it by a small sparse error: one vector at a time, the same x
    or the same ValueError; all the solvable ones in one call, the same
    list of x."""
    rng = random.Random(31)
    errors = Counter()
    for M in differential_cases():
        K = integer_kernel(M)
        n, r = len(K), len(K[0])
        vectors = []
        for _ in range(6):
            v = exact.mat_vec(K, [rng.randint(-4, 4) for _ in range(r)])
            for _ in range(rng.randint(0, 2)):
                v[rng.randrange(n)] += rng.choice((-2, -1, 1, 3))
            vectors.append(v)
        for v in vectors:
            try:
                expected = as_sparse(dense_kernel_coordinates(K, v))
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    kernel_coordinates(K, [as_sparse(v)])
                assert str(got.value) == str(e), (M, v)
                errors[str(e)] += 1
            else:
                assert kernel_coordinates(K, [as_sparse(v)]) == [expected], (M, v)
                errors["solved"] += 1
        good = [v for v in vectors if _solvable(K, v)]
        assert kernel_coordinates(K, [as_sparse(v) for v in good]) == [
            as_sparse(dense_kernel_coordinates(K, v)) for v in good]
    assert min(errors.values()) >= 20 and len(errors) == 3, errors


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hnf_idempotent(m, n, seed):
    rng = random.Random(seed)
    M = rand_matrix(rng, m, n)
    H, _ = hermite_normal_form(M)
    H2, _ = hermite_normal_form(H)
    assert H == H2
    assert hermite_form(M) == H and hermite_form(H) == H


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
    nonzero = exact.smith_form(M)[0]
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


# twice an invertible block: a loop's two ends on one vertex give I - (-I)
_LOOP_BLOCKS = (((2, 0), (0, 2)), ((-2, 2), (-2, 0)), ((0, -2), (2, -2)),
                ((2, 2), (0, 2)))


def loop_relation_matrix(rng, rows, cols):
    """Block rows as in `block_relation_matrix`, the last block column
    touched only by loop blocks, so that its entries are all even."""
    M = block_relation_matrix(rng, rows, cols)
    loops = rng.sample(range(rows), rng.randint(1, min(rows, 2)))
    for r in range(rows):
        blk = rng.choice(_LOOP_BLOCKS) if r in loops else ((0, 0), (0, 0))
        sign = rng.choice((1, -1))
        for i in range(2):
            M[2 * r + i] += [sign * x for x in blk[i]]
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
    for _ in range(30):  # loop blocks, entries ±2: the sweep skips columns
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(loop_relation_matrix(rng, rows, cols))
    odd = [rng.randrange(-10**6 + 1, 10**6, 2) for _ in range(8)]  # like D's
    for values in ((1, -1, 0), (2, -4, 6, 0), odd, odd + [0, 1, -1, 3]):
        for _ in range(15):  # residual-sized: 1-3 rows, up to 10 columns
            m, n = rng.randint(1, 3), rng.randint(1, 10)
            cases.append(zero_out(rng, sparse_matrix(rng, m, n, 0.8, values)))
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
        pivots, rest, residual = exact._eliminate_units(*exact.sparse(U))
        # the sweep runs from the last column to the first
        assert [c for c, _, _ in pivots] == list(reversed(range(n)))
        assert rest == [] and residual == []
    # the shortest row holding a unit pivots, the smaller index on a tie
    pivots, _, _ = exact._eliminate_units(*exact.sparse(
        [[1, 1, 1], [0, 1, -1], [0, 0, 1]]))
    assert [(c, s) for c, s, _ in pivots] == [(2, 1), (1, 1), (0, 1)]
    assert all(row == {} for _, _, row in pivots)
    pivots, rest, residual = exact._eliminate_units(*exact.sparse([[1, 1], [1, -1]]))
    assert pivots == [(1, 1, {0: 1})] and rest == [0] and residual == [[2]]
    # no column has entries of gcd 1: nothing is eliminated
    M = [[2, 4], [6, 6]]
    pivots, rest, residual = exact._eliminate_units(*exact.sparse(M))
    assert pivots == [] and rest == [0, 1] and residual == M
    # gcd 1 without a unit: Euclid's algorithm on the column's rows makes one
    pivots, rest, residual = exact._eliminate_units(*exact.sparse([[2, 4], [6, 3]]))
    assert pivots == [(1, 1, {0: -4})] and rest == [0] and residual == [[18]]
    # a column without a unit is left in rest; the residual keeps only the
    # surviving columns, in order
    pivots, rest, residual = exact._eliminate_units(
        *exact.sparse([[1, 2, 4], [3, 6, 10]]))
    assert [c for c, _, _ in pivots] == [0] and rest == [1, 2]
    assert residual == [[0, -2]]


def test_sweep_lift_is_canonical():
    """The free columns of the sweep are the Hermite pivots of the kernel:
    when no pivot row has an entry right of its column, in particular when
    no column was skipped, the lifted basis is its own Hermite form."""
    cases = [exact.sparse(M) for M in differential_cases()]
    cases += [relation_matrix(lsk) for lsk in _route_cases()]
    seen = Counter()
    for rows, n in cases:
        pivots, rest, residual = exact._eliminate_units(rows, n)
        if any(j > c for c, _, row in pivots for j in row):
            continue
        basis = exact._lift(n, pivots, rest, residual)
        assert basis == hermite_form(basis), (rows, n)
        seen["residual" if residual else "no residual"] += 1
    assert seen["no residual"] >= 50 and seen["residual"] >= 100, seen


def test_residual_kernel_matches_oracle():
    """`_lift` reads the residual's kernel from one Hermite form of
    [R^t | I]; the dense route takes the rows of U at the zero rows of
    H = U R^t and Hermite-canonicalizes them."""
    for R in differential_cases():
        n = len(R[0])
        assert exact._lift(n, [], list(range(n)), R) == transpose(
            dense_integer_kernel(R)), R


def is_hermite(H):
    """Row echelon with positive pivots, each column reduced into
    [0, pivot) above its pivot."""
    last = -1
    for i, row in enumerate(H):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            if any(any(r) for r in H[i:]):
                return False
            break
        j = nz[0]
        if j <= last or row[j] <= 0:
            return False
        if not all(0 <= H[k][j] < row[j] for k in range(i)):
            return False
        last = j
    return True


def test_hnf_differential():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    def lattice(rows, n):  # sympy's column HNF of the span of the rows
        return sympy_hnf(sympy.Matrix(n, len(rows), [x for c in zip(*rows) for x in c])
                         if rows else sympy.zeros(n, 0))

    for M in differential_cases():
        m, n = exact.shape(M)
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H and det(U) in (1, -1), M
        assert is_hermite(H), M
        assert exact.hermite_form(M) == H, M
        # sympy's echelon convention differs: compare the row lattices
        assert lattice(M, n) == lattice(H, n), M


def test_det_differential():
    """The `bareiss` oracle on the square part A of each case, and on its
    symmetric A + A^t, A + A^t with a zero diagonal (every zero-pivot rule)
    and A^t A, the symmetric pass of `IntLattice` too, against sympy.
    det(A^t A) = det(A)^2 is the isometry witness check of `is_isometric`:
    it is 1 exactly when det A = +-1."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    seen = Counter()
    for M in differential_cases():
        k = min(exact.shape(M))
        A = [row[:k] for row in M[:k]]
        sym = [[x + y for x, y in zip(r, c)] for r, c in zip(A, zip(*A))]
        hollow = [[x if i != j else 0 for j, x in enumerate(r)] for i, r in enumerate(sym)]
        gram = mat_mul(transpose(A), A)
        for B in (A, sym, hollow, gram):
            S = DomainMatrix.from_Matrix(sympy.Matrix(B))
            minors = [S[:i, :i].det() for i in range(1, k + 1)]
            expected = (minors[-1], all(x > 0 for x in minors))
            assert det(B) == expected[0], B
            assert bareiss(B) == expected, B
            if B is not A:
                assert symmetric_bareiss(B) == expected, B
                seen[B is hollow, expected[0] != 0] += 1
        d, g = det(A), symmetric_bareiss(gram)[0]
        assert g == d * d and (g == 1) == (d in (1, -1)), A
        seen["unimodular"] += d in (1, -1)
    assert min(seen.values()) >= 20, seen
