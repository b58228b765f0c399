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
Y.  Each of `ends:`, `nx:`, `op:` and `heads:` appears at most once.
Lines starting with `#` and blank lines are ignored.

If `heads:` is absent, the loop-decorated-tree convention (every loop
head placed so the loop region is stable) is applied when the skeleton
has that shape; any other skeleton without `heads:` is rejected, since
an orientation is part of the surface data and cannot be guessed.
"""

from __future__ import annotations

import re

from .generalized import LabelledSkeleton
from .skeletons import (Orientation, Skeleton, SkeletonError, Y, _orbits,
                        check_heads, stable_loop_orientation)


class ParseError(ValueError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_cycles(text, n, line_no):
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", text):
        raise ParseError("expected cycle notation like (0 1 2)(3 4 5)", line_no)
    # nothing of size n is built before the cycles list n ends, since n
    # comes from the file and may be far larger than the file itself
    perm = {}
    for m in re.finditer(r"\(([^()]*)\)", text):
        try:
            cyc = [int(tok) for tok in m.group(1).split()]
        except ValueError:
            raise ParseError(f"non-integer entry in cycle ({m.group(1)})", line_no)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 0 <= a < n:
                raise ParseError(f"end {a} out of range 0..{n - 1}", line_no)
            if a in perm:
                raise ParseError(f"end {a} appears twice", line_no)
            perm[a] = b
    if len(perm) != n:
        missing = next(x for x in range(n) if x not in perm)
        raise ParseError(f"end {missing} missing from permutation", line_no)
    return tuple(perm[x] for x in range(n))


def parse(text):
    """(Skeleton, Orientation), or a LabelledSkeleton when the file has a
    `label:` line, built as the lines are read.

    A malformed line raises ParseError with its line number (0 for a
    missing `ends:`, `nx:` or `op:`); a well-formed file that does not
    describe a valid skeleton raises SkeletonError.
    """
    n = heads = None
    perms = {}
    labels = {}  # edge index -> 2x2 tuple, in file order
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}", line_no)
        key = key.strip()
        rest = rest.strip()
        if key != "label" and key in seen:
            raise ParseError(f"second '{key}:' line", line_no)
        seen.add(key)
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
            perms[key] = _parse_cycles(rest, n, line_no)
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
                idx, a, b, c, d = map(int, toks)
            except ValueError:
                raise ParseError(f"bad label line {rest!r}", line_no)
            if idx in labels:
                raise ParseError(f"second label for edge {idx}", line_no)
            labels[idx] = ((a, b), (c, d))
        else:
            raise ParseError(f"unknown key {key!r}", line_no)
    if n is None or len(perms) < 2:
        raise ParseError("file must define ends, nx and op", 0)
    sk = Skeleton(n, perms["op"], perms["nx"])
    if labels:
        if heads is None:
            raise SkeletonError("labelled skeletons require an explicit heads line")
        edge_labels = [Y] * len(sk.edges)
        for idx, mat in labels.items():
            if not 0 <= idx < len(edge_labels):
                raise SkeletonError(f"label for nonexistent edge {idx}")
            edge_labels[idx] = mat
        lsk = LabelledSkeleton(n, sk.op, sk.nx, heads, tuple(edge_labels))
        lsk.validate()
        return lsk
    sk.validate()
    if heads is not None:
        check_heads(sk, heads)
        return sk, Orientation(heads)
    o = stable_loop_orientation(sk)
    if o is None:
        raise SkeletonError(
            "no heads line and not a loop-decorated tree; an orientation "
            "must be given explicitly"
        )
    return sk, o


def format_skeleton(sk, orientation=None):
    def cycles(perm):
        orbits = _orbits(perm, sk.n_ends)
        return "".join("(" + " ".join(map(str, c)) + ")" for c in orbits)

    lines = [f"ends: {sk.n_ends}", f"nx: {cycles(sk.nx)}", f"op: {cycles(sk.op)}"]
    if orientation is not None:
        lines.append("heads: " + " ".join(str(h) for h in orientation.heads))
    return "\n".join(lines) + "\n"


def format_labelled(lsk):
    lines = [format_skeleton(lsk, Orientation(lsk.heads))]
    for i, L in enumerate(lsk.labels):
        if L != Y:
            (a, b), (c, d) = L
            lines.append(f"label: {i} {a} {b} {c} {d}\n")
    return "".join(lines)
