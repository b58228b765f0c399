"""Command line front end.

Subcommands:

    ellskel analyze FILE [--json] [--orientation-sweep]
    ellskel verify-series {th1.1,th1.2,th1.3,th1.4,all} [--s-max N] [--json]
    ellskel enumerate K [--dedup] [--json]

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 invalid
skeleton, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import generalized, homology, skelfile
from .lattices import is_isometric
from .pseudotrees import (
    SERIES,
    enumerate_marked_trees,
    leaf_distances,
    orientation_for_series,
    tree_to_skeleton,
    verify_series,
)
from .skeletons import (
    SkeletonError,
    fiber_types,
    genus,
    orientation_classes,
    regions,
)


def _gram_list(L):
    return [list(r) for r in L.gram]


def _mw_dict(mw):
    return {"free_rank": mw.free_rank, "torsion": list(mw.torsion)}


def analyze_skeleton(sk, orientation):
    types, k, t = fiber_types(sk, orientation)
    rs = regions(sk)
    inv = homology.surface_invariants(sk, orientation)
    T = homology.transcendental_lattice(sk, orientation)
    mw = homology.mordell_weil(sk, orientation)
    cohom = []
    region_rows = []
    for r in rs:
        ft = types[r]
        region_rows.append(
            {
                "cycle": list(r.cycle),
                "size": r.size,
                "fiber": ft.name,
                "milnor": ft.milnor,
            }
        )
        group, _ = homology.region_cohomology(sk, orientation, r)
        cohom.append(list(group.torsion))
    return {
        "counts": sk.counts(),
        "genus": genus(sk),
        "heads": list(orientation.heads),
        "regions": region_rows,
        "invariants": {
            "k": inv.k,
            "t": inv.t,
            "g": inv.g,
            "r": inv.r,
            "chi": inv.chi,
            "sigma_plus": inv.sigma_plus,
            "sigma_minus": inv.sigma_minus,
            "mu": inv.mu,
            "rank_T": inv.rank_T,
            "rank_ker": inv.rank_ker,
        },
        "transcendental": {
            "rank": T.rank,
            "gram": _gram_list(T),
            "det": T.det() if T.rank else 1,
        },
        "mordell_weil": _mw_dict(mw),
        "region_cohomology": cohom,
    }


def analyze_labelled(lsk):
    T, mw = generalized.generalized_invariants(lsk)
    rows = []
    for cycle in generalized.regions(lsk):
        m = generalized.region_monodromy(lsk, cycle)
        rows.append(
            {
                "cycle": list(cycle),
                "size": len(cycle),
                "monodromy": list(generalized.classify_monodromy(m)),
            }
        )
    return {
        "counts": {
            "ends": lsk.n_ends,
            "vertices": len(lsk.vertices),
            "edges": len(lsk.edges),
        },
        "labelled": True,
        "regions": rows,
        "transcendental": {
            "rank": T.rank,
            "gram": _gram_list(T),
            "det": T.det() if T.rank else 1,
            "positive_definite": bool(T.rank and T.is_positive_definite()),
        },
        "mordell_weil": _mw_dict(mw),
        "kernel_cycles_span_radical": generalized.kernel_cycles_span_radical(lsk),
    }


def orientation_sweep(sk):
    """One row per orientation class modulo vertex flips.

    The classes are the cosets of the cut space, 2^(E-V+1) of them on a
    connected skeleton.  Each row's `heads` is the lexicographically
    smallest orientation in its class, and the rows are sorted by it.
    """
    rows = []
    for o in orientation_classes(sk):
        types, k, t = fiber_types(sk, o)
        T = homology.transcendental_lattice(sk, o)
        mw = homology.mordell_weil(sk, o)
        rows.append(
            {
                "heads": list(o.heads),
                "fibers": sorted(ft.name for ft in types.values()),
                "t": t,
                "transcendental_gram": _gram_list(T),
                "mordell_weil": _mw_dict(mw),
            }
        )
    return rows


def _emit(doc, as_json, out):
    if as_json:
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit_text(doc, out)


def _emit_text(doc, out, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                out.write(f"{pad}{key}:\n")
                _emit_text(val, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {_flat(val)}\n")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                out.write(f"{pad}-\n")
                _emit_text(item, out, indent + 1)
            else:
                out.write(f"{pad}- {_flat(item)}\n")
    else:
        out.write(f"{pad}{_flat(doc)}\n")


def _is_flat(val):
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val)
    return False


def _flat(val):
    if isinstance(val, list):
        return "[" + ", ".join(str(x) for x in val) + "]"
    return str(val)


def cmd_analyze(args, out):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parsed = skelfile.parse(text)
    if isinstance(parsed, tuple):
        sk, o = parsed
        doc = analyze_skeleton(sk, o)
        if args.orientation_sweep:
            doc["orientation_sweep"] = orientation_sweep(sk)
    else:
        if args.orientation_sweep:
            print("error: --orientation-sweep needs an unlabelled skeleton",
                  file=sys.stderr)
            return 3
        doc = analyze_labelled(parsed)
    _emit(doc, args.json, out)
    return 0


def cmd_verify_series(args, out):
    series_list = list(SERIES) if args.series == "all" else [args.series]
    failures = 0
    rows = []
    for series in series_list:
        for s in range(1, args.s_max + 1):
            report = verify_series(series, s)
            for idx, lattice_ok, mw, mw_ok in report.results:
                ok = lattice_ok and mw_ok
                failures += not ok
                rows.append(
                    {
                        "series": series,
                        "s": s,
                        "tree": idx,
                        "lattice_ok": bool(lattice_ok),
                        "mw_torsion": list(mw.torsion),
                        "mw_ok": bool(mw_ok),
                        "ok": bool(ok),
                    }
                )
    doc = {"results": rows, "failures": failures}
    if args.json:
        _emit(doc, True, out)
    else:
        for row in rows:
            verdict = "PASS" if row["ok"] else "FAIL"
            out.write(
                f"{row['series']} s={row['s']} tree={row['tree']}: {verdict}"
                f" (mw={row['mw_torsion']})\n"
            )
        out.write(f"failures: {failures}\n")
    return 1 if failures else 0


def cmd_enumerate(args, out):
    k = args.k
    series = "th1.1" if k % 2 == 0 else "th1.2"
    records = []
    for idx, tree in enumerate(enumerate_marked_trees(k)):
        sk, leaves = tree_to_skeleton(tree)
        o = orientation_for_series(sk, leaves, series)
        m, _ = leaf_distances(tree)
        T = homology.transcendental_lattice(sk, o)
        mw = homology.mordell_weil(sk, o)
        records.append(
            {
                "tree": idx,
                "file": skelfile.format_skeleton(sk, o),
                "distances": list(m),
                "transcendental": {
                    "rank": T.rank,
                    "gram": _gram_list(T),
                    "det": T.det() if T.rank else 1,
                },
                "mordell_weil": _mw_dict(mw),
                "_lattice": T,
            }
        )
    doc = {"k": k, "count": len(records)}
    if args.dedup:
        classes = []
        for rec in records:
            for cls in classes:
                if is_isometric(rec["_lattice"], cls["_lattice"]):
                    cls["trees"].append(rec["tree"])
                    break
            else:
                classes.append(
                    {
                        "_lattice": rec["_lattice"],
                        "trees": [rec["tree"]],
                        "transcendental": rec["transcendental"],
                    }
                )
        doc["classes"] = [
            {"trees": c["trees"], "transcendental": c["transcendental"]}
            for c in classes
        ]
    else:
        for rec in records:
            del rec["_lattice"]
        doc["records"] = records
    _emit(doc, args.json, out)
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="ellskel",
        description="invariants of elliptic surfaces from trivalent ribbon graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full invariant report for one file")
    pa.add_argument("file")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--orientation-sweep", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify-series", help="check the closed-form lattice series")
    pv.add_argument("series", choices=list(SERIES) + ["all"])
    pv.add_argument("--s-max", type=_positive_int, default=2)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify_series)

    pe = sub.add_parser("enumerate", help="all loop-decorated trees of size k")
    pe.add_argument("k", type=_positive_int)
    pe.add_argument("--dedup", action="store_true")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_enumerate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except skelfile.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except SkeletonError as e:
        print(f"invalid skeleton: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
