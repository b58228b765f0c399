"""Command line front end.

Subcommands:

    ellskel analyze FILE [--json] [--orientation-sweep]
                                  (at most MAX_SWEEP_CLASSES = 2^12 classes)
    ellskel verify-series {th1.1,th1.2,th1.3,th1.4,all} [--s-max N] [--json]
                                  (1 <= N <= MAX_TREE_SIZE // 2 = 6)
    ellskel enumerate K [--dedup] [--json]    (1 <= K <= MAX_TREE_SIZE = 12)

Exit codes: 0 success, 1 verification failure, 2 unreadable file or parse
error, 3 invalid skeleton, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache

from . import generalized, homology, skelfile
from .lattices import is_isometric
from .pseudotrees import SERIES, series_trees, verify_series
from .skeletons import SkeletonError, orientation_classes


def _transcendental(T):
    return {"rank": T.rank, "gram": T.gram_rows(), "det": T.det()}


def _mw_dict(mw):
    return {"free_rank": mw.free_rank, "torsion": list(mw.torsion)}


def analyze_skeleton(sk, orientation):
    lsk = generalized.from_skeleton(sk, orientation)
    # H_Gamma is not kept, so that the region loop's matrices and the
    # relation matrix are never alive together
    _, T, mw, (types, _, _), inv = homology.trivalent_invariants(lsk)
    cohom = []
    region_rows = []
    for r in lsk.regions:
        ft = types[r]
        region_rows.append(
            {
                "cycle": list(r.cycle),
                "size": r.size,
                "fiber": ft.name,
                "milnor": ft.milnor,
            }
        )
        cohom.append(list(homology.region_cohomology(lsk, r).torsion))
    return {
        "counts": sk.counts(),
        "genus": inv.g,
        "heads": list(orientation.heads),
        "regions": region_rows,
        "invariants": asdict(inv),
        "transcendental": _transcendental(T),
        "mordell_weil": _mw_dict(mw),
        "region_cohomology": cohom,
    }


def analyze_labelled(lsk):
    # the monodromies are classified first: one that is neither unipotent
    # nor torsion (exit 3) then costs no lattice work
    rows = []
    for r, m in lsk.monodromies.items():
        rows.append(
            {
                "cycle": list(r.cycle),
                "size": r.size,
                "monodromy": list(generalized.classify_monodromy(m)),
            }
        )
    hg = homology.h_gamma(lsk)
    T, spans = homology.transcendental_lattice(lsk, hg)
    mw = homology.mordell_weil(hg)
    return {
        "counts": lsk.counts(),
        "labelled": True,
        "regions": rows,
        "transcendental": {
            **_transcendental(T),
            "positive_definite": bool(T.rank and T.is_positive_definite()),
        },
        "mordell_weil": _mw_dict(mw),
        "kernel_cycles_span_radical": spans,
    }


def orientation_sweep(sk):
    """One row per orientation class modulo vertex flips.

    The classes are the cosets of the cut space, 2^(E-V+1) of them on a
    connected skeleton.  Each row's `heads` is the lexicographically
    smallest orientation in its class, and the rows are sorted by it.
    """
    rows = []
    for o in orientation_classes(sk):
        inv = homology.trivalent_invariants(generalized.from_skeleton(sk, o))
        types, _, t = inv.fibers
        rows.append(
            {
                "heads": list(o.heads),
                "fibers": sorted(ft.name for ft in types.values()),
                "t": t,
                "transcendental_gram": inv.T.gram_rows(),
                "mordell_weil": _mw_dict(inv.mw),
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
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parsed = skelfile.parse(text)
    if isinstance(parsed, tuple):
        sk, o = parsed
        e = len(sk.edges) - len(sk.vertices) + 1
        if args.orientation_sweep and 2 ** e > MAX_SWEEP_CLASSES:
            print(f"error: --orientation-sweep has 2^{e} classes, more than "
                  f"{MAX_SWEEP_CLASSES}", file=sys.stderr)
            return 3
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
    count = 0
    records = []
    classes = []  # (T, class row) of each class representative
    row_of = {}  # the class row of each analysed tree
    for idx, first, sk, o, dists, inv in series_trees(k, series, shared=args.dedup):
        count += 1
        if args.dedup:
            if first == idx:
                row = next((row for T, row in classes if is_isometric(inv.T, T)), None)
                if row is None:
                    row = {"trees": [], "transcendental": _transcendental(inv.T)}
                    classes.append((inv.T, row))
                row_of[idx] = row
            row_of[first]["trees"].append(idx)
        else:
            records.append(
                {
                    "tree": idx,
                    "file": skelfile.format_skeleton(sk, o),
                    "distances": list(dists[:-1]),
                    "transcendental": _transcendental(inv.T),
                    "mordell_weil": _mw_dict(inv.mw),
                }
            )
    doc = {"k": k, "count": count}
    if args.dedup:
        doc["classes"] = [row for _, row in classes]
    else:
        doc["records"] = records
    _emit(doc, args.json, out)
    return 0


# `enumerate 10 --json` takes 12-13 s and 42-43 MB peak RSS, and
# `enumerate 10 --dedup --json` 34 s (228 of 4,862 trees analysed; 817 s
# with all) and 20 MB (Python 3.11.7, 2-vCPU host).  Before `--dedup` kept
# only class representatives, `enumerate 12 --json` took 279 s and 437 MB;
# each step in K costs about 3x the memory and 4-5x the time
MAX_TREE_SIZE = 12


# `analyze --orientation-sweep` of a random 22-vertex skeleton, 2^12 classes,
# takes 16 s, 81 MB and writes 7 MB (Python 3.11.7, 2-vCPU host); each two
# more vertices double the classes, at 3-5 ms per class
MAX_SWEEP_CLASSES = 2 ** 12


def _int_up_to(ceiling):
    """The argparse type of an integer from 1 to `ceiling`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling}, got {value}")
        return value

    return parse


@cache
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
    # member s of a series has trees of size `series_k(series, s)` <= 2s
    pv.add_argument("--s-max", type=_int_up_to(MAX_TREE_SIZE // 2), default=2,
                    help=f"largest series member, 1 to {MAX_TREE_SIZE // 2}")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify_series)

    pe = sub.add_parser("enumerate", help="all loop-decorated trees of size k")
    pe.add_argument("k", type=_int_up_to(MAX_TREE_SIZE),
                    help=f"number of loops, 1 to {MAX_TREE_SIZE}")
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
    except (AssertionError, ValueError) as e:
        # every input error is a ParseError or SkeletonError, caught
        # above; any other ValueError is a check inside the engine
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
