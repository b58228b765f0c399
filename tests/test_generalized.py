import hashlib
import random
from itertools import product

import pytest

from ellskel.exact import integer_kernel
from ellskel.generalized import (
    LabelledSkeleton,
    classify_monodromy,
    from_skeleton,
    insert_E_fiber,
    invariant_vector,
    parabolic_conjugator,
)
from ellskel.homology import h_gamma, mordell_weil, transcendental_lattice
from ellskel.pseudotrees import (
    enumerate_marked_trees,
    orientation_for_series,
    tree_to_skeleton,
)
from ellskel.skeletons import (
    SkeletonError,
    X,
    Y,
    gl2_mul,
    region_monodromy,
)
from ellskel.skelfile import format_labelled, parse

from test_homology import through_expansion
from test_skeletons import default_orientation, perm_from_cycles, random_skeleton

YT = tuple(tuple(r) for r in Y)


def all_A_base(k):
    sk, leaves = tree_to_skeleton(enumerate_marked_trees(k)[0])
    o = orientation_for_series(sk, leaves, "th1.1" if k % 2 == 0 else "th1.2")
    return from_skeleton(sk, o)


def invariants(lsk):
    """(T, MW, region cycles saturate to the radical) from one h_gamma."""
    hg = h_gamma(lsk)
    T, spans = transcendental_lattice(lsk, hg)
    return T, mordell_weil(hg), spans


def test_reduction_to_trivalent_engine():
    rng = random.Random(81)
    for _ in range(8):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        o = default_orientation(sk)
        lsk = from_skeleton(sk, o)
        lsk.validate()
        checks = through_expansion(lsk, h_gamma(lsk))
        assert len(checks) == 5 and all(checks.values()), checks
        assert invariants(lsk)[2]


def test_insert_labels():
    base = all_A_base(2)
    nedges = len(base.edges)
    minus = lambda m: tuple(tuple(-x for x in r) for r in m)
    xyx = tuple(tuple(r) for r in gl2_mul(X, Y, X))
    xt = tuple(tuple(r) for r in X)
    new_labels = lambda l: [L for L in l.labels if L != YT]
    assert new_labels(insert_E_fiber(base, 0, "E6")) == [minus(xt)]
    assert new_labels(insert_E_fiber(base, 0, "A0**")) == [xt]
    assert new_labels(insert_E_fiber(base, 0, "A1*")) == [minus(xyx)]
    assert new_labels(insert_E_fiber(base, 0, "E7")) == [xyx]
    assert sorted(new_labels(insert_E_fiber(base, 0, "E8", 0))) == sorted(
        [xt, minus(xt)]
    )
    assert new_labels(insert_E_fiber(base, 0, "A2*", 0)) == [xt, xt]
    assert new_labels(insert_E_fiber(base, 0, "A2*", 1)) == [minus(xt), minus(xt)]
    with pytest.raises(ValueError, match="variant"):
        insert_E_fiber(base, 0, "E8")
    with pytest.raises(ValueError, match="variant"):
        insert_E_fiber(base, 0, "E6", 0)
    with pytest.raises(ValueError, match="unknown"):
        insert_E_fiber(base, 0, "E9")
    with pytest.raises(ValueError, match="no edge"):
        insert_E_fiber(base, nedges, "E6")
    aug = insert_E_fiber(base, 0, "E8", 0)
    arc = next(i for i, L in enumerate(aug.labels) if L != YT)
    with pytest.raises(ValueError, match="Y-labelled"):
        insert_E_fiber(aug, arc, "E6")


# torsion order of the new region's boundary monodromy, by kind
DISK_ORDERS = {
    ("A0**", None): 3,
    ("E6", None): 6,
    ("A1*", None): 4,
    ("E7", None): 4,
    ("A2*", 0): 3,
    ("A2*", 1): 3,
    ("E8", 0): 6,
    ("E8", 1): 6,
}


def test_splice_outputs_pinned():
    """Every edge of the th1.1-oriented all-Y skeleton of each marked tree
    with k <= 3, spliced with each (kind, variant): 27 edges x 8 = 216
    files, hashed as `format_labelled` writes them.  The digest was
    recorded when each gadget still had its own construction branch."""
    digest = hashlib.sha256()
    count = 0
    for k in (1, 2, 3):
        for tree in enumerate_marked_trees(k):
            sk, leaves = tree_to_skeleton(tree)
            base = from_skeleton(sk, orientation_for_series(sk, leaves, "th1.1"))
            for ei in range(len(base.edges)):
                for kind, var in DISK_ORDERS:
                    lsk = insert_E_fiber(base, ei, kind, var)
                    digest.update(format_labelled(lsk).encode())
                    count += 1
    assert count == 216
    assert digest.hexdigest() == (
        "62193e632c9816bdac7b3b4e4c1a55e9e5cc8b8049f76fd6901b34178098cf62")


def test_inserted_region_monodromies():
    for k in (2, 3):
        base = all_A_base(k)
        for (kind, var), order in DISK_ORDERS.items():
            for ei in (0, len(base.edges) - 1):
                lsk = insert_E_fiber(base, ei, kind, var)
                shapes = [
                    classify_monodromy(region_monodromy(lsk, r.cycle))
                    for r in lsk.regions
                ]
                torsion = [s for s in shapes if s[0] == "torsion"]
                assert torsion == [("torsion", order)]
                assert all(s[0] == "unipotent" for s in shapes if s not in torsion)


def test_invariant_vector_criterion():
    # only +(XY)^n boundaries admit an invariant vector
    base = all_A_base(2)
    for (kind, var) in DISK_ORDERS:
        lsk = insert_E_fiber(base, 1, kind, var)
        for r in lsk.regions:
            m = region_monodromy(lsk, r.cycle)
            shape = classify_monodromy(m)
            v = invariant_vector(m)
            if shape[0] == "unipotent" and shape[1] == 1:
                assert v is not None
            else:
                assert v is None


def test_invariant_vector_matches_integer_kernel():
    """The closed form against the kernel of m - I by `integer_kernel`, on
    every 2x2 matrix with entries in -4..4: the same primitive vector
    (first nonzero entry positive, (1, 0) for m = I), or None."""
    found = 0
    for a, b, c, d in product(range(-4, 5), repeat=4):
        m = ((a, b), (c, d))
        K = integer_kernel([[a - 1, b], [c, d - 1]])
        expected = (K[0][0], K[1][0]) if K and K[0] else None
        assert invariant_vector(m) == expected, m
        found += expected is not None
    assert found > 400
    assert invariant_vector(((1, 0), (0, 1))) == (1, 0)


# (k, kind, variant) -> (rank, det) of T for insertion at edge 0 on the
# lexicographically first loop-decorated tree, stable-loop orientation
POSDEF_CASES = {
    (2, "A0**", None): (2, 39),
    (2, "E7", None): (2, 24),
    (2, "E8", 0): (2, 11),
    (2, "E8", 1): (2, 11),
    (3, "A0**", None): (4, 12),
    (3, "E7", None): (4, 8),
    (3, "E8", 0): (4, 4),
    (3, "E8", 1): (4, 4),
}


def test_augmented_pseudo_trees_positive_definite():
    for (k, kind, var), (rk, dt) in POSDEF_CASES.items():
        lsk = insert_E_fiber(all_A_base(k), 0, kind, var)
        T, mw, radical_ok = invariants(lsk)
        assert (T.rank, T.det()) == (rk, dt)
        assert T.is_positive_definite()
        assert mw.order == 1
        assert radical_ok


def test_augmented_indefinite_cases():
    # these label choices force the outer fiber to the I* side, which on
    # this base gives a non-maximal Picard number; the quotient form is
    # then legitimately indefinite and is reported as computed
    expected = {("E6", None): -4, ("A1*", None): -8, ("A2*", 0): -12}
    for (kind, var), dt in expected.items():
        lsk = insert_E_fiber(all_A_base(2), 0, kind, var)
        T, mw, radical_ok = invariants(lsk)
        assert (T.rank, T.det()) == (3, dt)
        assert not T.is_positive_definite()
        assert mw.order == 1
        assert radical_ok


def test_double_insertion():
    lsk = insert_E_fiber(all_A_base(2), 0, "A0**")
    lsk2 = insert_E_fiber(lsk, 5, "E8", 0)
    T, mw, radical_ok = invariants(lsk2)
    assert (T.rank, T.det()) == (6, 48)
    assert T.is_positive_definite()
    assert mw.order == 1
    assert radical_ok


def one_vertex_six_valent(op_cycles, head=min):
    op = perm_from_cycles(6, op_cycles)
    heads = tuple(head(p) for p in op_cycles)
    return LabelledSkeleton(
        6, op, perm_from_cycles(6, [(0, 1, 2, 3, 4, 5)]), heads, (YT,) * 3
    )


def test_six_valent_vertex():
    lsk = one_vertex_six_valent([(0, 3), (1, 4), (2, 5)])
    lsk.validate()
    hg = h_gamma(lsk)
    K, gram = hg.kernel, hg.gram
    assert len(K[0]) == 4
    assert gram == [
        [-2, 1, 1, -2],
        [1, 2, 0, 1],
        [1, 0, 2, 1],
        [-2, 1, 1, -2],
    ]
    T, mw, radical_ok = invariants(lsk)
    assert T.gram == ((2, 0, 1), (0, 2, 1), (1, 1, -2))
    assert mw.order == 1
    assert radical_ok


def test_six_valent_torsion_section_group():
    lsk = one_vertex_six_valent([(0, 2), (1, 4), (3, 5)])
    lsk.validate()
    T, mw, radical_ok = invariants(lsk)
    assert mw.torsion == (2,)
    assert radical_ok


def test_labelled_engine_through_expansion():
    """Every E kind on two edges of two bases, a double insertion, and
    six-valent vertices (three pairings, heads at either end) against the
    end-coordinate oracles; the six-valent form is pinned by
    test_six_valent_vertex."""
    cases = [insert_E_fiber(all_A_base(2), 0, "A0**")]
    cases.append(insert_E_fiber(cases[0], 5, "E8", 0))
    for k in (2, 3):
        base = all_A_base(k)
        for kind, var in DISK_ORDERS:
            for ei in (0, len(base.edges) - 1):
                cases.append(insert_E_fiber(base, ei, kind, var))
    for pairs in ([(0, 3), (1, 4), (2, 5)], [(0, 2), (1, 4), (3, 5)],
                  [(0, 1), (2, 3), (4, 5)]):
        for head in (min, max):
            cases.append(one_vertex_six_valent(pairs, head))
    for lsk in cases:
        lsk.validate()
        checks = through_expansion(lsk, h_gamma(lsk))
        assert all(checks.values()), checks
        assert ("form" in checks) == (lsk.n_ends != 6)


def test_validate_rejects_bad_valency():
    lsk = LabelledSkeleton(
        4,
        perm_from_cycles(4, [(0, 2), (1, 3)]),
        perm_from_cycles(4, [(0, 1), (2, 3)]),
        (0, 1),
        (YT, YT),
    )
    with pytest.raises(SkeletonError, match="valency"):
        lsk.validate()


def test_validate_rejects_bad_label_determinant():
    base = all_A_base(2)
    bad = LabelledSkeleton(
        base.n_ends,
        base.op,
        base.nx,
        base.heads,
        (((1, 0), (0, 2)),) + base.labels[1:],
    )
    with pytest.raises(SkeletonError, match="determinant"):
        bad.validate()


PARABOLIC_TEXT = """\
ends: 6
nx: (0 1 2)(3 4 5)
op: (0 3)(1 2)(4 5)
heads: 0 1 4
label: 0 -3 2 -2 1
"""


def test_parabolic_region_off_normal_form():
    lsk = parse(PARABOLIC_TEXT)
    shapes = {}
    for r in lsk.regions:
        m = region_monodromy(lsk, r.cycle)
        shapes[tuple(map(tuple, m))] = classify_monodromy(m)
    # [[3, -2], [2, -1]] = P [[1, -2], [0, 1]] P^-1 with P = [[-1, 0], [-1, -1]]
    assert shapes[((3, -2), (2, -1))] == ("unipotent", 1, -2)


def test_parabolic_conjugator_over_labels():
    """Every trace +-2 region monodromy over all labels with entries in -3..3."""
    base = parse(PARABOLIC_TEXT)
    entries = range(-3, 4)
    labels = [
        ((a, b), (c, d))
        for a in entries for b in entries for c in entries for d in entries
        if a * d - b * c == 1
    ]
    literal = conjugate = 0
    for edge in range(len(base.edges)):
        for L in labels:
            lsk = LabelledSkeleton(
                base.n_ends, base.op, base.nx, base.heads,
                tuple(L if i == edge else YT for i in range(len(base.edges))),
            )
            for r in lsk.regions:
                m = region_monodromy(lsk, r.cycle)
                trace = m[0][0] + m[1][1]
                if abs(trace) != 2:
                    continue
                sign = trace // 2
                P, j = parabolic_conjugator(m, sign)
                (p, q), (s, t) = P
                assert p * t - q * s == 1
                # m P = P (sign * [[1, j], [0, 1]])
                assert gl2_mul(m, P) == gl2_mul(P, ((sign, sign * j), (0, sign)))
                assert classify_monodromy(m) == ("unipotent", sign, j)
                if m[1][0] == 0 and m[0][0] == m[1][1]:
                    literal += 1
                    assert j == sign * m[0][1]  # the literal reading
                else:
                    conjugate += 1
    assert literal and conjugate
