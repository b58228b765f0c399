import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ellskel import (
    cli,
    exact,
    generalized,
    homology,
    lattices,
    pseudotrees,
    skelfile,
    skeletons,
)
from ellskel.cli import MAX_SWEEP_CLASSES, MAX_TREE_SIZE, main, orientation_sweep
from ellskel.generalized import from_skeleton, insert_E_fiber
from ellskel.pseudotrees import (
    SERIES,
    enumerate_marked_trees,
    expected_lattice,
    orientation_for_series,
    tree_to_skeleton,
)
from ellskel.skeletons import (
    Orientation,
    SkeletonError,
    X,
    Y,
    fiber_types,
    gl2_apply,
    gl2_mul,
)

from test_skeletons import (
    PSEUDOTREE_K1,
    all_orientations,
    default_orientation,
    perm_from_cycles,
    random_skeleton,
    reorient,
)

GOLDEN = Path(__file__).parent / "golden"

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
    names = sorted(ft.name for ft in fiber_types(from_skeleton(sk, o))[0].values())
    assert names == ["A~0*", "A~0*", "D~8"]
    # a heads-less tree file takes the stable-loop orientation of th1.1
    for k in range(1, 7):
        for tree in enumerate_marked_trees(k):
            sk, leaves = tree_to_skeleton(tree)
            assert skelfile.parse(skelfile.format_skeleton(sk)) == (
                sk, orientation_for_series(sk, leaves, "th1.1"))


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
        ("ends: 6\nends: 6\n", "second 'ends:'"),
        ("ends: 6\nnx: (0 1 2)(3 4 5)\nends: 12\n", "second 'ends:'"),
        ("ends: 6\nnx: (0 1 2)(3 4 5)\nnx: (0 2 1)(3 5 4)\n", "second 'nx:'"),
        ("ends: 6\nop: (0 3)(1 2)(4 5)\nop: (0 3)(1 2)(4 5)\n", "second 'op:'"),
        ("ends: 6\nheads: 0 2 5\nheads: 3 1 4\n", "second 'heads:'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(skelfile.ParseError, match=fragment):
        skelfile.parse(text)


PARSE_PIN_FILES = (
    # with heads, a comment and a blank line
    "# theta graph\nends: 6\nnx: (0 1 2)(3 4 5)\n\nop: (0 3)(1 2)(4 5)\n"
    "heads: 0 2 5\n",
    # heads-less loop tree, k = 2
    "ends: 12\nnx: (0 1 2)(3 4 5)(6 7 8)(9 10 11)\n"
    "op: (0 3)(1 2)(4 6)(5 9)(7 8)(10 11)\n",
    # labelled: the k = 1 tree with an E8 splice
    "ends: 12\nnx: (0 1 2)(3 4 5)(6 7 8)(9 10 11)\n"
    "op: (0 6)(1 2)(3 9)(4 5)(7 11)(8 10)\nheads: 0 2 9 5 11 8\n"
    "label: 4 1 -1 1 0\nlabel: 5 -1 1 -1 0\n",
)


def parse_pin_corpus():
    """Each file of PARSE_PIN_FILES with one line deleted, one line
    doubled, or one token (a run of characters other than blanks and
    parentheses) replaced by x, -1, 999, 0 or nothing."""
    for text in PARSE_PIN_FILES:
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            yield "".join(lines[:i] + lines[i + 1:])
            yield "".join(lines[:i + 1] + lines[i:])
            for m in re.finditer(r"[^\s()]+", line):
                for tok in ("x", "-1", "999", "0", ""):
                    mutated = line[:m.start()] + tok + line[m.end():]
                    yield "".join(lines[:i] + [mutated] + lines[i + 1:])


def parse_outcome(text):
    try:
        parsed = skelfile.parse(text)
    except Exception as e:
        return type(e).__name__, str(e)
    if isinstance(parsed, tuple):
        return "skeleton", skelfile.format_skeleton(*parsed)
    return "labelled", skelfile.format_labelled(parsed)


def test_parse_outcomes_pinned():
    """The outcome of `skelfile.parse` on a fixed corpus of mutated files:
    the exception class and message (with its line number), or the file
    the result formats back to.  The digest was recorded when parsing
    still went through a separate document record."""
    outcomes = [parse_outcome(text) for text in parse_pin_corpus()]
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert (len(outcomes), len(set(outcomes))) == (520, 234)
    assert digest == (
        "6478e473f98828222bc98a4c460557f79d2dceb37f390d0c22cae3f162719c51")


def test_parse_error_carries_line_number():
    try:
        skelfile.parse("ends: 6\nnx: (0 1 2)(3 4)\n")
    except skelfile.ParseError as e:
        assert e.line_no == 2
        assert "line 2" in str(e)
    else:
        raise AssertionError("no error raised")
    with pytest.raises(skelfile.ParseError, match="line 4: second 'heads:'"):
        skelfile.parse("ends: 6\nheads: 0 2 5\n# a comment\nheads: 3 1 4\n")


def test_huge_end_count_is_rejected_without_allocation(tmp_path, capsys):
    """The end count comes from the file: nothing of that size is built
    before the cycles have listed that many ends."""
    text = "ends: 6000000000000\nnx: (0 1 2)\n"
    tracemalloc.start()
    try:
        with pytest.raises(skelfile.ParseError, match="line 2: end 3 missing"):
            skelfile.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    f = tmp_path / "huge.skel"
    f.write_text(text)
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 2 and err.startswith("parse error: line 2:") and "missing" in err


def test_head_validation():
    text = K1_TEXT + "heads: 0 1 4\n"
    sk, o = skelfile.parse(text)
    assert o.heads == (0, 1, 4)
    with pytest.raises(SkeletonError, match="not an end"):
        skelfile.parse(K1_TEXT + "heads: 0 1 3\n")
    with pytest.raises(SkeletonError, match="4 heads for 3 edges"):
        skelfile.parse(K1_TEXT + "heads: 0 1 4 5\n")


def test_labelled_head_validation(tmp_path, capsys):
    """A labelled file runs the same head check, and ends with exit 3."""
    label = "label: 0 0 -1 1 0\n"
    for heads, msg in (("0 1 4 5", "4 heads for 3 edges"),
                       ("0 1 3", "head 3 is not an end of edge (4, 5)")):
        f = tmp_path / "labelled.skel"
        f.write_text(K1_TEXT + f"heads: {heads}\n" + label)
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 3 and out == "" and msg in err, err


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


def test_engine_value_error_exit_4(tmp_path, capsys, monkeypatch):
    # a non-symmetric Gram inside the engine is an internal error, not a
    # mismatch (exit 1) or an input error (exit 2 or 3)
    monkeypatch.setattr(cli, "analyze_skeleton",
                        lambda sk, o: lattices.IntLattice([[0, 1], [2, 0]]))
    f = tmp_path / "k1.skel"
    f.write_text(K1_TEXT)
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 4
    assert "internal error: Gram matrix must be square and symmetric" in err


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


def test_analyze_hyperbolic_label_exit_3(tmp_path, capsys, monkeypatch):
    """A hyperbolic region monodromy ends the analysis before any lattice
    work: no H_Gamma is built."""
    calls = count_calls(monkeypatch, homology, "h_gamma")
    f = tmp_path / "hyp.skel"
    f.write_text(K1_TEXT + "heads: 0 2 5\nlabel: 1 2 1 1 1\n")
    code, out, err = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 3
    assert out == ""
    assert err == ("invalid skeleton: monodromy ((-2, -3), (-1, -2)) is neither "
                   "unipotent nor small torsion\n")
    assert calls == []


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


def chain_file(tmp_path, k):
    """The loop-decorated chain tree with k leaves, th1.1 orientation."""
    tree = None
    for _ in range(k - 1):
        tree = (None, tree)
    sk, leaves = tree_to_skeleton(tree)
    o = orientation_for_series(sk, leaves, "th1.1")
    f = tmp_path / f"chain{k}.skel"
    f.write_text(skelfile.format_skeleton(sk, o))
    return f


def test_analyze_chain_k64(tmp_path, capsys, monkeypatch):
    """The k = 64 loop-decorated chain tree, th1.1 orientation, end to end."""
    f = chain_file(tmp_path, 64)
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


@pytest.mark.slow
def test_analyze_chain_k128(tmp_path, capsys):
    """The k = 128 chain tree, end to end, byte for byte; no time bound.
    With one E8 fiber spliced in, the labelled path too."""
    code, out, err = run_cli(capsys, "analyze", str(chain_file(tmp_path, 128)), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["invariants"]["k"] == 128
    assert doc["invariants"]["rank_T"] == doc["transcendental"]["rank"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "beedc8bb994368a2b0fb7073c7ea2d531efc39d1e2b8fa1081e8341a379e33f3")
    lsk = insert_E_fiber(from_skeleton(*skelfile.parse(chain_file(tmp_path, 128).read_text())),
                         3, "E8", 0)
    f = tmp_path / "chain128-e8.skel"
    f.write_text(skelfile.format_labelled(lsk))
    code, out, err = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ad26096ebe37538b9edd982eb84a2a3eb8e2521dec3853aa008498557a973024")


@pytest.mark.slow
def test_analyze_random_128_e8(tmp_path, capsys):
    """A random 128-vertex skeleton with one E8 fiber spliced in, end to
    end, byte for byte; its region cycles prove the radical."""
    rng = random.Random(128)
    sk = random_skeleton(rng, 128)
    o = Orientation(tuple(rng.choice(e) for e in sk.edges))
    f = tmp_path / "random128-e8.skel"
    f.write_text(skelfile.format_labelled(insert_E_fiber(from_skeleton(sk, o), 0, "E8", 0)))
    code, out, err = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6774a9b9f1a56aabc751351cae32aac60ec4aa00d7f2aa55215ec4425f4dcee0")


@pytest.mark.slow
def test_analyze_chain_k256(tmp_path, capsys):
    """The k = 256 chain tree, end to end, byte for byte; no time bound."""
    code, out, err = run_cli(capsys, "analyze", str(chain_file(tmp_path, 256)), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["invariants"]["k"] == 256
    assert doc["invariants"]["rank_T"] == doc["transcendental"]["rank"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "48c05b4710382a0927fafa08000c1d12866bcdc2a0aae3228a268add4d868a27")


@pytest.mark.slow
def test_analyze_chain_k512(tmp_path, capsys):
    """The k = 512 chain tree, end to end, byte for byte; no time bound.
    Its T is the largest symmetric elimination of the pins."""
    code, out, err = run_cli(capsys, "analyze", str(chain_file(tmp_path, 512)), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["invariants"]["k"] == 512
    assert doc["invariants"]["rank_T"] == doc["transcendental"]["rank"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02e10273b679227af6011287170cd3eb08128b217cb210aea2b13e69a1fb4f4a")


@pytest.mark.slow
@pytest.mark.parametrize("argv,digest", [
    (("--json",), "30314efaac724417e26f3ad2d0743f2b09a532955195ccae92608e304c656091"),
    ((), "c54aec1871bcb8a27bc32514a99e550f18ab6151abe4ba9e6215bd8fc3f2fa16"),
    (("--dedup", "--json"),
     "4bff20cf1973310b924b27e1713ec645c029a96cb51af709df803a72224b9987"),
    (("--dedup",), "7be88150f198d0f4fd5c2900f128408fcf7eaca190c661dfc89e8ba89e1def60"),
])
def test_enumerate_8(capsys, argv, digest):
    """All 429 trees with 8 loops, byte for byte, in JSON and text, with
    and without `--dedup`."""
    code, out, err = run_cli(capsys, "enumerate", "8", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_7_json(capsys):
    """All 132 trees with 7 loops, byte for byte: odd K takes th1.2."""
    code, out, err = run_cli(capsys, "enumerate", "7", "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47f51d995f7eac5bcf4ae3420302a0a0d6f80d21e7ecf1dd144f20e56813d593")


@pytest.mark.slow
@pytest.mark.parametrize("argv,digest", [
    (("enumerate", "9", "--dedup", "--json"),
     "2e197f3dd42c13f6adf30f64163ece6acf700fa04fe1391771daff81e4a3ed91"),
    (("verify-series", "all", "--s-max", "4", "--json"),
     "ea405ebec5384a3cafc5bb6ee8ad600f2b7cd133f9d7ec2af8280948fc2e4a0c"),
    (("verify-series", "th1.4", "--s-max", "5", "--json"),
     "2a1b91d252e4c40ac0ab9bf369e99c07399adebae82e81e4a1f1059eae79feaa"),
])
def test_shared_analysis_pins(capsys, argv, digest):
    """The commands that share one analysis per surface, byte for byte:
    1,430 th1.2 trees, every series up to s = 4, and the 1,430 th1.4
    trees of s = 5, where only the mirror word shares analyses."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/path.skel")
    assert code == 2


def test_analyze_non_utf8_file_exit_2(tmp_path, capsys):
    f = tmp_path / "bytes.skel"
    f.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "analyze", str(f))
    assert code == 2
    assert err.startswith("error: ") and "codec can't decode" in err
    assert "Traceback" not in err


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
        lsk = from_skeleton(sk, oc)
        types, k, t = fiber_types(lsk)
        inv = homology.trivalent_invariants(lsk)
        classes[key] = {
            "heads": list(key),
            "fibers": sorted(ft.name for ft in types.values()),
            "t": t,
            "transcendental_gram": [list(r) for r in inv.T.gram],
            "mordell_weil": {"free_rank": inv.mw.free_rank,
                             "torsion": list(inv.mw.torsion)},
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


def test_orientation_sweep_ceiling(tmp_path, capsys, monkeypatch):
    """A sweep over more than MAX_SWEEP_CLASSES = 2^12 classes exits 3
    before any analysis: 24 and 40 vertices give 2^13 and 2^21 classes,
    while 22 vertices give 2^12 (the sweep itself is stubbed out)."""
    assert MAX_SWEEP_CLASSES == 2 ** 12
    monkeypatch.setattr(cli, "orientation_sweep", lambda sk: [])
    calls = count_calls(monkeypatch, homology, "trivalent_invariants")
    rng = random.Random(40)
    for n_vertices, refused in ((22, False), (24, True), (40, True)):
        calls.clear()
        sk = random_skeleton(rng, n_vertices)
        f = tmp_path / f"sk{n_vertices}.skel"
        f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
        code, out, err = run_cli(capsys, "analyze", str(f), "--orientation-sweep")
        if refused:
            assert (code, out, calls) == (3, "", [])
            assert err == (f"error: --orientation-sweep has 2^{n_vertices // 2 + 1}"
                           " classes, more than 4096\n")
        else:
            assert code == 0 and len(calls) == 1, err


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


def test_enumerate_rejects_k_above_ceiling(capsys):
    """K past MAX_TREE_SIZE is a usage error, not a RecursionError."""
    for k in (MAX_TREE_SIZE + 1, 1200):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", str(k)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"must be at most {MAX_TREE_SIZE}" in captured.err and captured.out == ""


def test_asymmetric_form_exit_4(tmp_path, capsys, monkeypatch):
    """A scaled form with one off-diagonal entry changed ends `analyze`
    with exit code 4, trivalent and labelled."""
    scaled_form = homology.scaled_form

    def skewed(lsk):
        F, n = scaled_form(lsk)
        i, j = next((i, j) for i, row in enumerate(F) for j in row if i != j)
        F[i][j] += homology.form_scale(lsk)
        return F, n

    f = chain_file(tmp_path, 3)
    lsk = insert_E_fiber(from_skeleton(*skelfile.parse(f.read_text())), 0, "E6", None)
    g = tmp_path / "labelled.skel"
    g.write_text(skelfile.format_labelled(lsk))
    monkeypatch.setattr(homology, "scaled_form", skewed)
    for path in (f, g):
        code, out, err = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 4 and out == "" and "form to restrict is not symmetric" in err, err


def test_verify_series_rejects_s_max_above_ceiling(capsys, monkeypatch):
    """--s-max past MAX_TREE_SIZE // 2 is a usage error; only the parser
    runs."""

    def no_run(series, s):
        raise AssertionError(f"verify_series ran for s = {s}")

    monkeypatch.setattr(cli, "verify_series", no_run)
    ceiling = MAX_TREE_SIZE // 2
    assert ceiling == 6
    args = cli.build_parser().parse_args(["verify-series", "all", "--s-max", "6"])
    assert args.s_max == ceiling
    for s in (ceiling + 1, 1000):
        with pytest.raises(SystemExit) as exc:
            main(["verify-series", "all", "--s-max", str(s)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"must be at most {ceiling}" in captured.err and captured.out == ""


def test_congruence_index_failure_exit_4(capsys, monkeypatch):
    """A congruence basis B of the wrong index ends `verify-series th1.4`
    with exit code 4."""
    hnf = exact.column_lattice_hnf
    monkeypatch.setattr(exact, "column_lattice_hnf",
                        lambda M: [r[:-1] + [2 * r[-1]] for r in hnf(M)])
    code, out, err = run_cli(capsys, "verify-series", "th1.4", "--s-max", "2")
    assert code == 4 and "congruence sublattice index 8 != 4" in err, err


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


def test_verify_series_det_remainder_exit_4(tmp_path, capsys, monkeypatch):
    """A wrong det S or a wrong MW breaks det S = det T · |MW|², and every
    trivalent command exits 4: `analyze` and its sweep on the th1.3 s=1
    tree (det T = 16, MW trivial), `enumerate 3` and the series."""
    sk, leaves = tree_to_skeleton(enumerate_marked_trees(2)[0])
    f = tmp_path / "th1_3.skel"
    f.write_text(skelfile.format_skeleton(
        sk, orientation_for_series(sk, leaves, "th1.3")))
    commands = (("analyze", str(f)), ("analyze", str(f), "--orientation-sweep"),
                ("enumerate", "3"), ("verify-series", "th1.3", "--s-max", "1"))
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0
    mordell_weil = homology.mordell_weil

    def torsion_2_if_trivial(hg):
        mw = mordell_weil(hg)
        return exact.AbelianInvariants(0, (2,)) if mw.order == 1 else mw

    # the first mutant takes D_(n+4) for A_(n-1)
    mutants = ((skeletons.FiberType, "root_det", property(lambda ft: ft.n_gon)),
               (homology, "mordell_weil", torsion_2_if_trivial))
    for target, name, value in mutants:
        with monkeypatch.context() as m:
            m.setattr(target, name, value)
            for argv in commands:
                code, _, err = run_cli(capsys, *argv)
                assert code == 4, (name, argv)
                assert "is not det T · |MW|²" in err


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


def test_enumerate_dedup_keeps_class_representatives(capsys, monkeypatch):
    """`enumerate --dedup` formats no record, analyses the first tree of
    each surface only, and tests it against the T of each class
    representative only."""
    formats = count_calls(monkeypatch, skelfile, "format_skeleton")
    tests = count_calls(monkeypatch, cli, "is_isometric")
    lattices_of = {}  # tree index -> T, for the analysed trees
    keys = {}
    for idx, tree in enumerate(enumerate_marked_trees(6)):
        keys.setdefault(pseudotrees.surface_key(tree, "th1.1"), idx)
    analysed = iter(sorted(keys.values()))
    invariants = homology.trivalent_invariants

    def keep_T(lsk):
        inv = invariants(lsk)
        lattices_of[next(analysed)] = inv.T
        return inv

    monkeypatch.setattr(homology, "trivalent_invariants", keep_T)
    code, out, err = run_cli(capsys, "enumerate", "6", "--dedup", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["count"] == 42 and len(lattices_of) == 4 and not formats
    representatives = {id(lattices_of[c["trees"][0]]) for c in doc["classes"]}
    assert tests and all(id(args[1]) in representatives for args in tests)


def test_enumerate_8_dedup_one_analysis_per_surface(capsys, monkeypatch):
    """429 trees with 8 loops are 27 surfaces up to conjugation, all in
    one class."""
    tests = count_calls(monkeypatch, cli, "is_isometric")
    analyses = count_calls(monkeypatch, homology, "trivalent_invariants")
    code, out, err = run_cli(capsys, "enumerate", "8", "--dedup", "--json")
    assert code == 0, err
    assert json.loads(out)["count"] == 429
    assert len(analyses) == 27 and len(tests) <= 26


def test_analyze_parabolic_label_exit_0(tmp_path, capsys):
    # the region monodromy [[3, -2], [2, -1]] is conjugate to [[1, -2], [0, 1]]
    f = tmp_path / "parabolic.skel"
    f.write_text(
        K1_TEXT + "heads: 0 1 4\nlabel: 0 -3 2 -2 1\n"
    )
    code, out, err = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0, err
    shapes = [r["monodromy"] for r in json.loads(out)["regions"]]
    assert ["unipotent", 1, -2] in shapes


def count_calls(monkeypatch, module, name, keep=lambda *args: True):
    calls = []
    original = getattr(module, name)

    def spy(*args):
        if keep(*args):
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_one_h_gamma_per_analysis(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, homology, "h_gamma")
    rng = random.Random(12)
    for n_vertices in (2, 4, 6):
        sk = random_skeleton(rng, n_vertices)
        f = tmp_path / "sk.skel"
        f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
        calls.clear()
        code, _, _ = run_cli(capsys, "analyze", str(f), "--json")
        assert code == 0 and len(calls) == 1
        calls.clear()
        code, out, _ = run_cli(capsys, "analyze", str(f), "--json",
                               "--orientation-sweep")
        assert code == 0
        assert len(calls) == 1 + len(json.loads(out)["orientation_sweep"])
    calls.clear()
    code, out, _ = run_cli(capsys, "verify-series", "all", "--s-max", "2", "--json")
    # one analysis per conjugate pair of surfaces: 10 for 18 trees
    assert code == 0 and len(json.loads(out)["results"]) == 18
    assert len(calls) == 10


def test_one_fiber_types_per_analysis(tmp_path, capsys, monkeypatch):
    bindings = [count_calls(monkeypatch, module, "fiber_types")
                for module in (cli, homology, pseudotrees, skeletons)
                if hasattr(module, "fiber_types")]

    def calls():
        return sum(map(len, bindings))

    rng = random.Random(13)
    for n_vertices in (2, 4, 6):
        sk = random_skeleton(rng, n_vertices)
        f = tmp_path / "sk.skel"
        f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
        before = calls()
        code, _, _ = run_cli(capsys, "analyze", str(f), "--json")
        assert code == 0 and calls() == before + 1
        before = calls()
        code, out, _ = run_cli(capsys, "analyze", str(f), "--json",
                               "--orientation-sweep")
        assert code == 0
        assert calls() == before + 1 + len(json.loads(out)["orientation_sweep"])
    before = calls()
    code, out, _ = run_cli(capsys, "verify-series", "all", "--s-max", "2", "--json")
    # one analysis per conjugate pair of surfaces: 10 for 18 trees
    assert code == 0 and len(json.loads(out)["results"]) == 18
    assert calls() - before == 10


def test_one_conversion_per_oriented_skeleton(tmp_path, capsys, monkeypatch):
    """An oriented trivalent skeleton becomes its all-Y labelled skeleton
    once: per analysis, per sweep class, per series surface and per
    enumerated tree; a series surface or enumerated tree is built once,
    and its outer region walked once."""
    bindings = [count_calls(monkeypatch, module, "from_skeleton")
                for module in (cli, generalized, homology, pseudotrees)
                if hasattr(module, "from_skeleton")]
    builds = count_calls(monkeypatch, pseudotrees, "tree_to_skeleton")
    walks = count_calls(monkeypatch, pseudotrees, "leaf_order")

    def run(*argv):
        for calls in bindings + [builds, walks]:
            calls.clear()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return sum(map(len, bindings)), json.loads(out)

    rng = random.Random(15)
    for n_vertices in (2, 4, 6):
        sk = random_skeleton(rng, n_vertices)
        f = tmp_path / "sk.skel"
        f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
        assert run("analyze", str(f), "--json")[0] == 1
        n, doc = run("analyze", str(f), "--json", "--orientation-sweep")
        assert n == 1 + len(doc["orientation_sweep"])
    n, doc = run("verify-series", "all", "--s-max", "2", "--json")
    assert len(doc["results"]) == 18
    assert n == len(builds) == len(walks) == 10
    n, doc = run("enumerate", "4", "--json")
    assert n == doc["count"] == len(builds) == len(walks) == 5


def test_one_monodromy_walk_per_region(tmp_path, capsys, monkeypatch):
    """Fiber types, region cycles, the region cohomology check and the
    labelled report read one cached monodromy per region: one walk per
    region per analysis, trivalent or labelled."""
    calls = [count_calls(monkeypatch, module, "region_monodromy")
             for module in (cli, generalized, homology, skeletons)
             if hasattr(module, "region_monodromy")]
    rng = random.Random(16)
    sk = random_skeleton(rng, 6)
    o = default_orientation(sk)
    texts = [skelfile.format_skeleton(sk, o),
             skelfile.format_labelled(insert_E_fiber(from_skeleton(sk, o), 1, "E7"))]
    for text in texts:
        for c in calls:
            c.clear()
        f = tmp_path / "sk.skel"
        f.write_text(text)
        code, out, err = run_cli(capsys, "analyze", str(f), "--json")
        assert code == 0, err
        n_regions = len(json.loads(out)["regions"])
        assert sum(map(len, calls)) == n_regions
        assert len({args[1] for c in calls for args in c}) == n_regions


def test_one_short_vector_enumeration_per_series_level(capsys, monkeypatch):
    """verify_series tests every tree of a level against one expected
    lattice, whose short vectors are enumerated once for the level."""
    calls = count_calls(monkeypatch, lattices, "short_vectors")
    per_level = {}
    verify = cli.verify_series

    def verify_level(series, s):
        before = len(calls)
        report = verify(series, s)
        per_level[series, s] = len(calls) - before
        return report

    monkeypatch.setattr(cli, "verify_series", verify_level)
    lattices._target.cache_clear()
    code, _, _ = run_cli(capsys, "verify-series", "all", "--s-max", "3")
    assert code == 0 and len(per_level) == 12
    nonzero = {(series, s) for series in SERIES for s in (1, 2, 3)
               if expected_lattice(series, s).rank}
    assert len(nonzero) == 9
    assert {level for level, n in per_level.items() if n} == nonzero
    assert max(per_level.values()) == 1


def test_one_kernel_per_labelled_analysis(tmp_path, capsys, monkeypatch):
    """A labelled analysis builds H_Gamma once, from one elimination of D,
    and takes no kernel of its Gram matrix when the region cycles prove the
    radical (an E8 splice), and one when they do not (the two golden
    files whose cycles fall short of the radical or do not saturate it)."""
    sk, leaves = tree_to_skeleton(enumerate_marked_trees(3)[0])
    o = orientation_for_series(sk, leaves, "th1.2")
    f = tmp_path / "e8.skel"
    f.write_text(skelfile.format_labelled(insert_E_fiber(from_skeleton(sk, o), 2, "E8", 0)))
    cases = [(f, 0, True), (GOLDEN / "labelled_cycles_short.skel", 1, False),
             (GOLDEN / "labelled_cycles_unsaturated.skel", 1, True)]
    for f, n_gram_kernels, spans in cases:
        lsk = skelfile.parse(f.read_text())
        gram = homology.h_gamma(lsk).gram
        h_calls = count_calls(monkeypatch, homology, "h_gamma")
        relation_calls = count_calls(monkeypatch, homology, "relation_matrix")
        kernel_calls = count_calls(
            monkeypatch, homology, "kernel_and_cokernel",
            lambda rows, n, lsk=lsk: n == 2 * len(lsk.edges),
        )
        # the radical's kernels of the Gram, from either module
        gram_calls = [count_calls(monkeypatch, module, "integer_kernel",
                                  lambda M, gram=gram: M == gram)
                      for module in (homology, lattices)
                      if hasattr(module, "integer_kernel")]
        code, out, err = run_cli(capsys, "analyze", str(f), "--json")
        monkeypatch.undo()
        assert code == 0, err
        assert json.loads(out)["kernel_cycles_span_radical"] is spans
        assert (len(h_calls), len(relation_calls), len(kernel_calls)) == (1, 1, 1)
        assert sum(map(len, gram_calls)) == n_gram_kernels


def test_no_gram_kernel_on_trivalent_paths(tmp_path, capsys, monkeypatch):
    """Trivalent analyses, sweep classes, series trees and enumerated trees
    take the radical from the region cycles: no `integer_kernel` call at
    all, except inside `expected_lattice`, which builds a series level's
    closed-form lattice once."""
    calls, expected = [], []
    inside = []
    for module in (exact, generalized, homology, lattices, pseudotrees):
        if hasattr(module, "integer_kernel"):
            original = getattr(module, "integer_kernel")

            def spy(M, original=original):
                (expected if inside else calls).append(M)
                return original(M)

            monkeypatch.setattr(module, "integer_kernel", spy)
    expected_lattice = pseudotrees.expected_lattice

    def spy_expected(*args):
        inside.append(True)
        try:
            return expected_lattice(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(pseudotrees, "expected_lattice", spy_expected)

    def run(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert calls == []
        return json.loads(out)

    rng = random.Random(16)
    files = [chain_file(tmp_path, 8)]
    for n_vertices in (2, 4, 6):
        sk = random_skeleton(rng, n_vertices)
        f = tmp_path / f"sk{n_vertices}.skel"
        f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
        files.append(f)
    for f in files:
        run("analyze", str(f), "--json")
        doc = run("analyze", str(f), "--json", "--orientation-sweep")
        assert doc["orientation_sweep"]
    assert len(run("verify-series", "all", "--s-max", "3", "--json")["results"]) == 130
    assert expected  # the spies see the closed-form lattices' kernels
    assert run("enumerate", "5", "--dedup", "--json")["count"] == 14


def test_region_cycle_mutations_exit_4(tmp_path, capsys, monkeypatch):
    """Each check on the cycles' span fails on its own mutation, and
    `analyze` ends with exit code 4: every region cycle left out (the form
    is degenerate) or any one of them (the quotient is degenerate), one
    cycle's coordinates doubled (the span is not saturated) or replaced by
    a basis vector off the radical."""
    seen = Counter()
    rng = random.Random(17)
    files = [chain_file(tmp_path, 3), chain_file(tmp_path, 4)]
    kernel_cycles = homology.kernel_cycles
    while len(files) < 5:  # random skeletons that have region cycles
        sk = random_skeleton(rng, rng.choice([2, 4, 6]))
        o = Orientation(tuple(rng.choice(e) for e in sk.edges))
        if kernel_cycles(from_skeleton(sk, o)):
            files.append(tmp_path / f"sk{len(files)}.skel")
            files[-1].write_text(skelfile.format_skeleton(sk, o))
    coordinates = homology.kernel_coordinates

    def analyze_with(f, name, spy, message):
        monkeypatch.setattr(homology, name, spy)
        code, out, err = run_cli(capsys, "analyze", str(f), "--json")
        monkeypatch.undo()
        assert code == 4 and out == "" and message in err, err
        seen[message] += 1

    for f in files:
        code, out, err = run_cli(capsys, "analyze", str(f), "--json")
        assert code == 0, err
        lsk = from_skeleton(*skelfile.parse(f.read_text()))
        off = [{j: 1} for j, row in enumerate(homology.h_gamma(lsk).gram) if any(row)]
        analyze_with(f, "kernel_cycles", lambda lsk: [], "but no region cycle is")
        for drop in range(len(kernel_cycles(lsk))):
            analyze_with(f, "kernel_cycles",
                         lambda lsk, drop=drop: kernel_cycles(lsk)[:drop]
                         + kernel_cycles(lsk)[drop + 1:],
                         "quotient by the radical is degenerate")
        analyze_with(f, "kernel_coordinates",
                     lambda K, vs: [{j: 2 * y for j, y in x.items()} if i == 0 else x
                                    for i, x in enumerate(coordinates(K, vs))],
                     "not saturated")
        if off:  # a form that is not zero
            analyze_with(f, "kernel_coordinates",
                         lambda K, vs: off[:1] + coordinates(K, vs)[1:],
                         "not in the radical")
    assert len(seen) == 4 and min(seen.values()) >= 2, seen


def test_labelled_cycle_mutations_exit_4(tmp_path, capsys, monkeypatch):
    """On labelled input each region cycle must satisfy the relations: a
    cycle changed at the larger end of an edge only (the edge relation
    fails, the edge values and so D u stay) or moved along a non-loop edge
    (the edge relation holds, D u does not vanish) ends `analyze` with
    exit code 4."""
    kernel_cycles = homology.kernel_cycles

    def moved(lsk, along):
        a, b = next((a, b) for a, b in lsk.edges
                    if lsk.vertex_of(a) != lsk.vertex_of(b))
        cycles = [list(c) for c in kernel_cycles(lsk)]
        mb = gl2_apply(lsk.lifts[b], (1, 0))
        cycles[0][2 * b] += mb[0]
        cycles[0][2 * b + 1] += mb[1]
        if along:
            cycles[0][2 * a] += 1
        return cycles

    rng = random.Random(18)
    for kind, variant in (("E6", None), ("E8", 0), ("A1*", None)):
        sk = random_skeleton(rng, 4)
        lsk = insert_E_fiber(from_skeleton(sk, default_orientation(sk)), 0, kind, variant)
        assert kernel_cycles(lsk)
        f = tmp_path / "labelled.skel"
        f.write_text(skelfile.format_labelled(lsk))
        assert run_cli(capsys, "analyze", str(f), "--json")[0] == 0
        for along in (False, True):
            monkeypatch.setattr(homology, "kernel_cycles",
                                lambda lsk, along=along: moved(lsk, along))
            code, out, err = run_cli(capsys, "analyze", str(f), "--json")
            monkeypatch.undo()
            assert code == 4 and out == "", err
            assert "cycle does not satisfy the relations" in err


def test_two_relation_eliminations_per_analysis(tmp_path, capsys, monkeypatch):
    """Each trivalent analysis, sweep class and series surface eliminates its
    relation matrix D once (kernel and first cokernel route) and D^t once
    (second route), and is_isometric takes no kernel of its lattices.  D
    has one row pair per vertex and one column pair per edge: 2V x 2E, so
    2:3 on a trivalent skeleton.  D^t is matched by identity, because
    `sparse_transpose` leaves out the zero columns of D."""
    shapes = []  # (rows, columns) of every relation matrix built
    built, transposes = [], []
    build, transpose = homology.relation_matrix, homology.sparse_transpose

    def spy_build(lsk):
        D, n = build(lsk)
        shapes.append((len(D), n))
        built.append(D)
        return D, n

    def spy_transpose(rows):
        out = transpose(rows)
        if any(rows is D for D in built):
            transposes.append(out[0])
        return out

    monkeypatch.setattr(homology, "relation_matrix", spy_build)
    monkeypatch.setattr(homology, "sparse_transpose", spy_transpose)
    eliminations = count_calls(monkeypatch, exact, "_eliminate_units")
    inside = []
    iso_kernels = count_calls(monkeypatch, lattices, "integer_kernel",
                              lambda M: bool(inside))
    for module in (cli, pseudotrees):
        isometric = module.is_isometric

        def spy_isometric(*args, isometric=isometric):
            inside.append(True)
            try:
                return isometric(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, "is_isometric", spy_isometric)

    def run(*argv):
        for calls in shapes, built, transposes, eliminations:
            calls.clear()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        expected = Counter(shapes)
        seen = Counter((len(rows), n) for rows, n in eliminations
                       if (len(rows), n) in expected)
        assert seen == expected
        assert len(transposes) == len(shapes)
        assert all(sum(rows is Dt for rows, _ in eliminations) == 1
                   for Dt in transposes)
        assert all(2 * n == 3 * m for m, n in shapes)
        return json.loads(out)

    rng = random.Random(14)
    for n_vertices in (2, 4, 6):
        sk = random_skeleton(rng, n_vertices)
        f = tmp_path / "sk.skel"
        f.write_text(skelfile.format_skeleton(sk, default_orientation(sk)))
        run("analyze", str(f), "--json")
        assert len(shapes) == 1
        doc = run("analyze", str(f), "--json", "--orientation-sweep")
        assert len(shapes) == 1 + len(doc["orientation_sweep"])
    # one analysis per conjugate pair: 10 for 18 series trees, 1 for 5 trees
    assert len(run("verify-series", "all", "--s-max", "2", "--json")["results"]) == 18
    assert len(shapes) == 10
    assert run("enumerate", "4", "--dedup", "--json")["count"] == 5
    assert len(shapes) == 1
    assert iso_kernels == []


# generators of det-1 labels for the fuzz below: X, Y, the two elementary
# matrices and -I
_LABEL_GENERATORS = (X, Y, ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, -1)))
_FUZZ_CHARS = "0123456789 -()\n:#abdehlnopsx"


@st.composite
def mutated_skeleton_text(draw):
    """A valid skeleton file, sometimes labelled, then mutated a few times:
    characters replaced or deleted, lines duplicated or dropped."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sk = random_skeleton(rng, draw(st.sampled_from([2, 4])))
    o = Orientation(tuple(rng.choice(e) for e in sk.edges))
    lines = skelfile.format_skeleton(sk, o).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 2))):
        lines.append(_random_label_line(draw, len(sk.edges)))
    return _mutate(draw, lines)


def _random_label_line(draw, n_edges):
    word = draw(st.lists(st.sampled_from(_LABEL_GENERATORS), max_size=5))
    (a, b), (c, d) = gl2_mul(*word)
    return f"label: {draw(st.integers(0, n_edges - 1))} {a} {b} {c} {d}\n"


def _mutate(draw, lines):
    """The file's lines with characters replaced or deleted, and lines
    duplicated or dropped, a few times."""
    for op, pos, char in draw(st.lists(
            st.tuples(st.sampled_from("rdxy"), st.integers(0, 10**6),
                      st.sampled_from(_FUZZ_CHARS)), max_size=3)):
        text = "".join(lines)
        i = pos % (len(text) or 1)
        if op == "r":
            text = text[:i] + char + text[i + 1:]
        elif op == "d":
            text = text[:i] + text[i + 1 + pos % 3:]
        lines = text.splitlines(keepends=True) or ["\n"]
        j = pos % len(lines)
        if op == "x":
            lines.insert(j, lines[j])
        elif op == "y":
            del lines[j]
    return "".join(lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_skeleton_text())
def test_analyze_fuzz_exit_codes(tmp_path, capsys, text):
    """Any mutated skeleton file: `parse` raises only ParseError or
    SkeletonError, and `analyze` ends with an exit code 0-4 and no
    traceback, with and without --orientation-sweep."""
    _check_exit_codes(tmp_path, capsys, text)


def _check_exit_codes(tmp_path, capsys, text):
    try:
        skelfile.parse(text)
    except (skelfile.ParseError, SkeletonError):
        pass
    f = tmp_path / "fuzz.skel"
    f.write_text(text)
    for extra in ([], ["--orientation-sweep"]):
        code, _, err = run_cli(capsys, "analyze", str(f), "--json", *extra)
        assert code in range(5) and "Traceback" not in err


_E_KINDS = [("A0**", None), ("E6", None), ("A1*", None), ("E7", None),
            ("A2*", 0), ("A2*", 1), ("E8", 0), ("E8", 1)]


def random_six_valent(rng):
    """A random connected labelled skeleton, all Y, with one 6-valent
    vertex and up to two more vertices of valency 3 or 6."""
    while True:
        valencies = [6] + [rng.choice((3, 6)) for _ in range(rng.randint(0, 2))]
        if sum(valencies) % 2:
            valencies.append(3)
        n = sum(valencies)
        ends = list(range(n))
        rng.shuffle(ends)
        starts = [sum(valencies[:i]) for i in range(len(valencies))]
        nx = perm_from_cycles(
            n, [tuple(ends[a:a + v]) for a, v in zip(starts, valencies)])
        rng.shuffle(ends)
        op = perm_from_cycles(n, [tuple(ends[i:i + 2]) for i in range(0, n, 2)])
        edges = [(i, op[i]) for i in range(n) if i < op[i]]
        lsk = generalized.LabelledSkeleton(
            n, op, nx, tuple(rng.choice(e) for e in edges), (Y,) * len(edges))
        try:
            lsk.validate()
        except SkeletonError:
            continue
        return lsk


@st.composite
def mutated_labelled_text(draw):
    """A valid labelled file, mutated as above: a random oriented skeleton
    with one or two `insert_E_fiber` splices, or a random six-valent
    skeleton; either may take extra random det-1 labels."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sk = random_skeleton(rng, draw(st.sampled_from([2, 4])))
        lsk = from_skeleton(sk, Orientation(tuple(rng.choice(e) for e in sk.edges)))
        for _ in range(draw(st.integers(1, 2))):
            kind, variant = draw(st.sampled_from(_E_KINDS))
            edges = [i for i, L in enumerate(lsk.labels) if L == Y]
            lsk = insert_E_fiber(lsk, draw(st.sampled_from(edges)), kind, variant)
        lines = skelfile.format_labelled(lsk).splitlines(keepends=True)
    else:
        lsk = random_six_valent(rng)
        # a Y label line of its own keeps an all-Y file labelled
        (a, b), (c, d) = Y
        lines = skelfile.format_labelled(lsk).splitlines(keepends=True)
        lines.append(f"label: 0 {a} {b} {c} {d}\n")
    for _ in range(draw(st.integers(0, 1))):
        lines.append(_random_label_line(draw, len(lsk.edges)))
    return _mutate(draw, lines)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_labelled_text())
def test_analyze_fuzz_labelled_exit_codes(tmp_path, capsys, text):
    """As above, on spliced-fiber and six-valent files, which reach the
    labelled engine and its region-cycle span check."""
    _check_exit_codes(tmp_path, capsys, text)


def test_readme_library_example(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    code = example.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
