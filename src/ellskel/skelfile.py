"""Text format for skeletons.

A skeleton file is a small line-oriented document:

    ends: 6
    nx: (0 1 2)(3 4 5)
    op: (0 3)(1 2)(4 5)
    heads: 0 2 5
    label: 1 -1 1 -1 0

`nx` and `op` are permutations in cycle notation; every end index must
appear exactly once (write fixed points as singleton cycles, although
neither permutation may actually have any).  `heads:` lists one end per
edge, in the order of edges sorted by their smaller end.  Each optional
`label:` line attaches a 2x2 integer matrix (row-major) to one edge by
index, and an edge takes at most one; any `label:` line turns the
document into a labelled skeleton, with unlabelled edges defaulting to
Y.  Lines starting with `#` and blank lines are ignored.

If `heads:` is absent, the loop-decorated-tree convention (every loop
head placed so the loop region is stable) is applied when the skeleton
has that shape; any other skeleton without `heads:` is rejected, since
an orientation is part of the surface data and cannot be guessed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .generalized import LabelledSkeleton
from .skeletons import Orientation, Skeleton, SkeletonError, Y, genus, regions

_Y = tuple(tuple(r) for r in Y)


class ParseError(ValueError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_cycles(text, n, line_no):
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", text):
        raise ParseError("expected cycle notation like (0 1 2)(3 4 5)", line_no)
    perm = list(range(n))
    seen = set()
    for m in re.finditer(r"\(([^()]*)\)", text):
        try:
            cyc = [int(tok) for tok in m.group(1).split()]
        except ValueError:
            raise ParseError(f"non-integer entry in cycle ({m.group(1)})", line_no)
        for x in cyc:
            if not 0 <= x < n:
                raise ParseError(f"end {x} out of range 0..{n - 1}", line_no)
            if x in seen:
                raise ParseError(f"end {x} appears twice", line_no)
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ParseError(f"ends {missing} missing from permutation", line_no)
    return tuple(perm)


@dataclass(frozen=True)
class SkeletonDoc:
    n_ends: int
    op: tuple
    nx: tuple
    heads: tuple | None
    labels: tuple | None  # ((edge_index, 2x2 tuple), ...) or None


def parse_document(text):
    n = None
    op = nx = heads = None
    labels = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}", line_no)
        key = key.strip()
        rest = rest.strip()
        if key == "ends":
            try:
                n = int(rest)
            except ValueError:
                raise ParseError(f"bad end count {rest!r}", line_no)
            if n <= 0 or n % 6:
                raise ParseError(f"end count {n} is not a positive multiple of 6",
                                 line_no)
        elif key in ("nx", "op"):
            if n is None:
                raise ParseError(f"'{key}:' before 'ends:'", line_no)
            perm = _parse_cycles(rest, n, line_no)
            if key == "nx":
                nx = perm
            else:
                op = perm
        elif key == "heads":
            try:
                heads = tuple(int(tok) for tok in rest.split())
            except ValueError:
                raise ParseError(f"bad head list {rest!r}", line_no)
        elif key == "label":
            toks = rest.split()
            if len(toks) != 5:
                raise ParseError("label needs: edge-index and 4 matrix entries",
                                 line_no)
            try:
                vals = [int(t) for t in toks]
            except ValueError:
                raise ParseError(f"bad label line {rest!r}", line_no)
            if any(idx == vals[0] for idx, _ in labels):
                raise ParseError(f"second label for edge {vals[0]}", line_no)
            labels.append((vals[0], ((vals[1], vals[2]), (vals[3], vals[4]))))
        else:
            raise ParseError(f"unknown key {key!r}", line_no)
    if n is None or op is None or nx is None:
        raise ParseError("file must define ends, nx and op", 0)
    return SkeletonDoc(n, op, nx, heads, tuple(labels) if labels else None)


def _loop_tree_heads(sk):
    """Stable-loop heads if sk is a loop-decorated tree, else None."""
    if genus(sk) != 0:
        return None
    rs = regions(sk)
    monogons = [r for r in rs if r.size == 1]
    k = sk.n_ends // 6
    if len(monogons) != k + 1 or len(rs) != k + 2:
        return None
    loop_heads = {}
    for r in monogons:
        (alpha,) = r.cycle
        e = tuple(sorted((alpha, sk.op[alpha])))
        loop_heads[e] = sk.op[alpha]
    return Orientation(tuple(loop_heads.get(e, e[0]) for e in sk.edges))


def resolve(doc):
    """(Skeleton, Orientation) or LabelledSkeleton from a parsed document."""
    if doc.labels is not None:
        sk_probe = Skeleton(doc.n_ends, doc.op, doc.nx)
        edges = sk_probe.edges
        if doc.heads is None:
            raise SkeletonError("labelled skeletons require an explicit heads line")
        labels = [_Y] * len(edges)
        for idx, mat in doc.labels:
            if not 0 <= idx < len(edges):
                raise SkeletonError(f"label for nonexistent edge {idx}")
            labels[idx] = mat
        lsk = LabelledSkeleton(doc.n_ends, doc.op, doc.nx, doc.heads, tuple(labels))
        lsk.validate()
        return lsk
    sk = Skeleton(doc.n_ends, doc.op, doc.nx)
    sk.validate()
    if doc.heads is not None:
        edges = sk.edges
        if len(doc.heads) != len(edges):
            raise SkeletonError(
                f"{len(doc.heads)} heads for {len(edges)} edges"
            )
        for (a, b), h in zip(edges, doc.heads):
            if h not in (a, b):
                raise SkeletonError(f"head {h} is not an end of edge {(a, b)}")
        return sk, Orientation(doc.heads)
    o = _loop_tree_heads(sk)
    if o is None:
        raise SkeletonError(
            "no heads line and not a loop-decorated tree; an orientation "
            "must be given explicitly"
        )
    return sk, o


def parse(text):
    return resolve(parse_document(text))


def _cycles_of(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            c = [i]
            seen[i] = True
            j = perm[i]
            while j != i:
                seen[j] = True
                c.append(j)
                j = perm[j]
            out.append(c)
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in out)


def format_skeleton(sk, orientation=None):
    lines = [
        f"ends: {sk.n_ends}",
        f"nx: {_cycles_of(sk.nx)}",
        f"op: {_cycles_of(sk.op)}",
    ]
    if orientation is not None:
        lines.append("heads: " + " ".join(str(h) for h in orientation.heads))
    return "\n".join(lines) + "\n"


def format_labelled(lsk):
    lines = [
        f"ends: {lsk.n_ends}",
        f"nx: {_cycles_of(lsk.nx)}",
        f"op: {_cycles_of(lsk.op)}",
        "heads: " + " ".join(str(h) for h in lsk.heads),
    ]
    for i, L in enumerate(lsk.labels):
        if L != _Y:
            (a, b), (c, d) = L
            lines.append(f"label: {i} {a} {b} {c} {d}")
    return "\n".join(lines) + "\n"
