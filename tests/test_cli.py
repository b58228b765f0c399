import json
import random

import pytest

from ellskel import homology, skelfile
from ellskel.cli import main, orientation_sweep
from ellskel.generalized import from_skeleton, insert_E_fiber
from ellskel.pseudotrees import (
    enumerate_marked_trees,
    orientation_for_series,
    tree_to_skeleton,
)
from ellskel.skeletons import (
    Orientation,
    SkeletonError,
    all_orientations,
    default_orientation,
    fiber_types,
    reorient,
)

from test_skeletons import PSEUDOTREE_K1, random_skeleton

K1_TEXT = """\
ends: 6
nx: (0 1 2)(3 4 5)
op: (0 3)(1 2)(4 5)
"""


def test_round_trip_random():
    rng = random.Random(91)
    for _ in range(10):
        sk = random_skeleton(rng, rng.choice([2, 4]))
        o = default_orientation(sk)
        text = skelfile.format_skeleton(sk, o)
        sk2, o2 = skelfile.parse(text)
        assert sk2 == sk
        assert o2 == o


def test_round_trip_labelled():
    sk, leaves = tree_to_skeleton(enumerate_marked_trees(2)[0])
    o = orientation_for_series(sk, leaves, "th1.1")
    lsk = insert_E_fiber(from_skeleton(sk, o), 0, "E8", 1)
    text = skelfile.format_labelled(lsk)
    lsk2 = skelfile.parse(text)
    assert lsk2 == lsk


def test_default_heads_for_loop_trees():
    sk, o = skelfile.parse(K1_TEXT)
    assert sk == PSEUDOTREE_K1
    names = sorted(ft.name for ft in fiber_types(sk, o)[0].values())
    assert names == ["A~0*", "A~0*", "D~8"]


def test_missing_heads_rejected_otherwise():
    text = "ends: 6\nnx: (0 1 2)(3 4 5)\nop: (0 3)(1 4)(2 5)\n"
    with pytest.raises(SkeletonError, match="orientation"):
        skelfile.parse(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ends: 7\n", "multiple of 6"),
        ("ends: 6\nnx: 0 1 2\n", "cycle notation"),
        ("ends: 6\nnx: (0 1 2)(3 4)\n", "missing"),
        ("ends: 6\nnx: (0 1 2)(3 4 5 5)\n", "twice"),
        ("ends: 6\nnx: (0 1 2)(3 4 9)\n", "out of range"),
        ("ends: 6\nnx: (0 1 2)(3 4 x)\n", "non-integer"),
        ("nx: (0 1 2)\n", "before 'ends:'"),
        ("ends: 6\nwat: 3\n", "unknown key"),
        ("bogus line\n", "key: value"),
        ("ends: 6\nnx: (0 1 2)(3 4 5)\nlabel: 0 1 0 0\n", "4 matrix entries"),
        ("ends: 6\n", "must define"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(skelfile.ParseError, match=fragment):
        skelfile.parse(text)


def test_parse_error_carries_line_number():
    try:
        skelfile.parse("ends: 6\nnx: (0 1 2)(3 4)\n")
    except skelfile.ParseError as e:
        assert e.line_no == 2
        assert "line 2" in str(e)
    else:
        raise AssertionError("no error raised")


def test_head_validation():
    text = K1_TEXT + "heads: 0 1 4\n"
    sk, o = skelfile.parse(text)
    assert o.heads == (0, 1, 4)
    with pytest.raises(SkeletonError, match="not an end"):
        skelfile.parse(K1_TEXT + "heads: 0 1 3\n")
    with pytest.raises(SkeletonError, match="4 heads for 3 edges"):
        skelfile.parse(K1_TEXT + "heads: 0 1 4 5\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_k1(tmp_path, capsys):
    f = tmp_path / "k1.skel"
    f.write_text(K1_TEXT)
    code, out, _ = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 0
    assert sorted(r["fiber"] for r in doc["regions"]) == ["A~0*", "A~0*", "D~8"]
    assert doc["transcendental"]["rank"] == 0
    assert doc["mordell_weil"] == {"free_rank": 0, "torsion": [2]}
    assert doc["invariants"]["chi"] == 12


def test_analyze_text_output(tmp_path, capsys):
    f = tmp_path / "k1.skel"
    f.write_text(K1_TEXT)
    code, out, _ = run_cli(capsys, "analyze", str(f))
    assert code == 0
    assert "genus: 0" in out
    assert "fiber: D~8" in out


def test_json_is_deterministic(tmp_path, capsys):
    f = tmp_path / "k1.skel"
    f.write_text(K1_TEXT)
    _, out1, _ = run_cli(capsys, "analyze", str(f), "--json")
    _, out2, _ = run_cli(capsys, "analyze", str(f), "--json")
    assert out1 == out2


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.skel"
    f.write_text("ends: 6\nnx: oops\n")
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 2
    assert "line 2" in err


def test_analyze_invalid_skeleton_exit_3(tmp_path, capsys):
    # two disjoint theta graphs: valid permutations, not connected
    f = tmp_path / "disc.skel"
    f.write_text(
        "ends: 12\n"
        "nx: (0 1 2)(3 4 5)(6 7 8)(9 10 11)\n"
        "op: (0 3)(1 4)(2 5)(6 9)(7 10)(8 11)\n"
        "heads: 0 1 2 6 7 8\n"
    )
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 3
    assert "connected" in err


def test_analyze_hyperbolic_label_exit_3(tmp_path, capsys):
    f = tmp_path / "hyp.skel"
    f.write_text(K1_TEXT + "heads: 0 2 5\nlabel: 1 2 1 1 1\n")
    code, out, err = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 3
    assert out == ""
    assert "invalid skeleton" in err and "unipotent" in err
    assert "Traceback" not in err


def test_duplicate_label_exit_2(tmp_path, capsys):
    text = K1_TEXT + "heads: 0 2 5\nlabel: 1 1 1 0 1\n# again\nlabel: 1 1 0 0 1\n"
    with pytest.raises(skelfile.ParseError, match="second label for edge 1") as exc:
        skelfile.parse(text)
    assert exc.value.line_no == 7
    f = tmp_path / "dup.skel"
    f.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(f))
    assert code == 2
    assert out == "" and "line 7" in err and "Traceback" not in err
    # distinct edges may each carry one label
    lsk = skelfile.parse(K1_TEXT + "heads: 0 2 5\nlabel: 1 1 1 0 1\nlabel: 2 1 1 0 1\n")
    assert lsk.labels[1] == lsk.labels[2] == ((1, 1), (0, 1))


def test_analyze_chain_k64(tmp_path, capsys, monkeypatch):
    """The k = 64 loop-decorated chain tree, th1.1 orientation, end to end."""
    tree = None
    for _ in range(63):
        tree = (None, tree)
    sk, leaves = tree_to_skeleton(tree)
    o = orientation_for_series(sk, leaves, "th1.1")
    f = tmp_path / "chain64.skel"
    f.write_text(skelfile.format_skeleton(sk, o))
    # the side route of each region's check is Coker(M^t - id) on a 2x2
    side_checks = []
    cokernel = homology.cokernel_invariants

    def spy(M):
        inv = cokernel(M)
        if len(M) == 2 and len(M[0]) == 2:
            side_checks.append(inv)
        return inv

    monkeypatch.setattr(homology, "cokernel_invariants", spy)
    code, out, err = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["invariants"]["k"] == 64
    assert doc["invariants"]["rank_T"] == doc["transcendental"]["rank"]
    n_regions = doc["invariants"]["r"]
    assert len(doc["regions"]) == len(doc["region_cohomology"]) == n_regions
    assert len(side_checks) == n_regions


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/path.skel")
    assert code == 2


def test_orientation_sweep(tmp_path, capsys):
    f = tmp_path / "k1.skel"
    f.write_text(K1_TEXT)
    code, out, _ = run_cli(capsys, "analyze", str(f), "--json", "--orientation-sweep")
    assert code == 0
    doc = json.loads(out)
    sweep = doc["orientation_sweep"]
    # 2^(edges - vertices + 1) classes modulo vertex flips
    assert len(sweep) == 4
    for row in sweep:
        assert (len([x for x in row["fibers"] if x.startswith("D")]) + 1) % 2 == 0


def brute_force_sweep(sk):
    """Reference sweep: each class keyed by its minimum over all 2^V flips."""
    nv = len(sk.vertices)
    classes = {}
    for o in all_orientations(sk):
        key = min(
            tuple(reorient(sk, o, [v for v in range(nv) if bits >> v & 1]).heads)
            for bits in range(2**nv)
        )
        if key in classes:
            continue
        oc = Orientation(key)
        types, k, t = fiber_types(sk, oc)
        T = homology.transcendental_lattice(sk, oc)
        mw = homology.mordell_weil(sk, oc)
        classes[key] = {
            "heads": list(key),
            "fibers": sorted(ft.name for ft in types.values()),
            "t": t,
            "transcendental_gram": [list(r) for r in T.gram],
            "mordell_weil": {"free_rank": mw.free_rank,
                             "torsion": list(mw.torsion)},
        }
    return [classes[k] for k in sorted(classes)]


def test_orientation_sweep_matches_brute_force():
    rng = random.Random(2026)
    loops = multi = 0
    for n_vertices, count in ((2, 8), (4, 6), (6, 3)):
        for _ in range(count):
            sk = random_skeleton(rng, n_vertices)
            pairs = [(sk.vertex_of(a), sk.vertex_of(b)) for a, b in sk.edges]
            loops += any(u == v for u, v in pairs)
            multi += len({tuple(sorted(p)) for p in pairs}) < len(pairs)
            rows = orientation_sweep(sk)
            dump = json.dumps(rows, sort_keys=True)
            assert dump == json.dumps(brute_force_sweep(sk), sort_keys=True)
            keys = [tuple(r["heads"]) for r in rows]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert len(keys) == 2 ** (len(sk.edges) - len(sk.vertices) + 1)
    assert loops and multi


def test_orientation_sweep_k4(tmp_path, capsys):
    sk = random_skeleton(random.Random(4), 8)
    f = tmp_path / "k4.skel"
    f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
    code, out, _ = run_cli(capsys, "analyze", str(f), "--json", "--orientation-sweep")
    assert code == 0
    sweep = json.loads(out)["orientation_sweep"]
    assert len(sweep) == 32
    for row in sweep:
        assert (4 + row["t"]) % 2 == 0


def test_enumerate_rejects_k_below_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_verify_series_rejects_s_max_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-series", "th1.1", "--s-max", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and captured.out == ""


def test_analyze_labelled(tmp_path, capsys):
    sk, leaves = tree_to_skeleton(enumerate_marked_trees(2)[0])
    o = orientation_for_series(sk, leaves, "th1.1")
    lsk = insert_E_fiber(from_skeleton(sk, o), 0, "A0**")
    f = tmp_path / "aug.skel"
    f.write_text(skelfile.format_labelled(lsk))
    code, out, _ = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["labelled"] is True
    assert doc["transcendental"]["positive_definite"] is True
    assert doc["transcendental"]["det"] == 39
    assert doc["kernel_cycles_span_radical"] is True
    shapes = [tuple(r["monodromy"]) for r in doc["regions"]]
    assert ("torsion", 3) in shapes
    code, _, err = run_cli(capsys, "analyze", str(f), "--orientation-sweep")
    assert code == 3


def test_verify_series_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-series", "th1.2", "--s-max", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify-series", "th1.1", "--s-max", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert len(doc["results"]) == 1
    assert doc["results"][0]["mw_torsion"] == [3]


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    assert len(doc["records"]) == 5
    for rec in doc["records"]:
        sk, o = skelfile.parse(rec["file"])
        assert sk.n_ends == 24
    code, out, _ = run_cli(capsys, "enumerate", "2", "--json")
    assert json.loads(out)["count"] == 1


def test_enumerate_dedup(capsys):
    for k, n_classes in ((3, 1), (4, 1)):
        code, out, _ = run_cli(capsys, "enumerate", str(k), "--dedup", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["classes"]) == n_classes
        assert sum(len(c["trees"]) for c in doc["classes"]) == doc["count"]
