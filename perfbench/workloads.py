"""Seeded inputs of the three benchmark workloads.

An item is one `ellskel` command line: a name, the argv, and the text of
the `.skel` file it reads (None for `verify-series`).  Every item draws
from its own generator, seeded by (seed, item name), so an item's input
does not depend on which other items are built, and a subset of the
items (`run.py --items`) sees the same inputs as the full list.

Inputs are built with the package's own constructors
(`pseudotrees.tree_to_skeleton`, `generalized.insert_E_fiber`) and written
with `skelfile.format_skeleton` / `format_labelled`, so the program under
test only ever receives generated files.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 20261017

WORKLOADS = ("series", "analyze", "sweep")

# analyze: chain trees at k = 8/16/24 (the D~5 orientation on k = 16), random
# skeletons at 16/24/32 vertices, one spliced fiber per kind.  The median of
# the 13 items is the slowest of the seven small ones, mostly chain-k8, whose
# input is fixed: the cost of a random skeleton depends on its largest region
# and varies threefold between seeds, so only one small item is random.
CHAIN_KS = (8, 16, 24)
D5_CHAIN_K = 16
RANDOM_VERTICES = (16, 24, 24, 24, 32)
FIBERS = ("E6", "E7", "E8", "A1*", "A2*")
FIBER_BASE_VERTICES = 16
SWEEP_FILES = 3
SWEEP_VERTICES = 6


def perm_from_cycles(n, cycles):
    perm = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            perm[a] = b
    return tuple(perm)


def random_skeleton(ellskel, rng, n_vertices):
    """Random connected trivalent skeleton on 3*n_vertices ends."""
    Skeleton = ellskel.skeletons.Skeleton
    n = 3 * n_vertices
    while True:
        ends = list(range(n))
        rng.shuffle(ends)
        nx_cycles = [tuple(ends[i : i + 3]) for i in range(0, n, 3)]
        ends2 = list(range(n))
        rng.shuffle(ends2)
        op_cycles = [tuple(ends2[i : i + 2]) for i in range(0, n, 2)]
        sk = Skeleton(n, perm_from_cycles(n, op_cycles),
                      perm_from_cycles(n, nx_cycles))
        try:
            sk.validate()
        except ellskel.skeletons.SkeletonError:
            continue
        return sk


def random_orientation(ellskel, rng, sk):
    return ellskel.skeletons.Orientation(tuple(rng.choice(e) for e in sk.edges))


def chain_tree(k):
    """The caterpillar: k-1 binary nodes, each with a leaf on the left."""
    tree = None
    for _ in range(k - 1):
        tree = (None, tree)
    return tree


def build_items(ellskel, workload, seed):
    """[(name, argv with FILE placeholder, file text or None)] for a workload."""
    fmt = ellskel.skelfile
    items = []

    def rng_for(name):
        return random.Random(f"{seed}/{name}")

    if workload == "series":
        for series in ellskel.pseudotrees.SERIES:
            argv = ["verify-series", series, "--s-max", "3", "--json"]
            items.append((f"verify-{series.replace('.', '')}", argv, None))
    elif workload == "analyze":
        argv = ["analyze", "FILE", "--json"]
        for k in CHAIN_KS:
            sk, leaves = ellskel.pseudotrees.tree_to_skeleton(chain_tree(k))
            series = "th1.3" if k == D5_CHAIN_K else "th1.1"
            o = ellskel.pseudotrees.orientation_for_series(sk, leaves, series)
            items.append((f"chain-k{k}", argv, fmt.format_skeleton(sk, o)))
        for i, nv in enumerate(RANDOM_VERTICES):
            name = f"random-v{nv}-{RANDOM_VERTICES[:i].count(nv)}"
            rng = rng_for(name)
            sk = random_skeleton(ellskel, rng, nv)
            o = random_orientation(ellskel, rng, sk)
            items.append((name, argv, fmt.format_skeleton(sk, o)))
        for kind in FIBERS:
            name = f"fiber-{kind.replace('*', 's')}"
            rng = rng_for(name)
            sk = random_skeleton(ellskel, rng, FIBER_BASE_VERTICES)
            o = random_orientation(ellskel, rng, sk)
            base = ellskel.generalized.from_skeleton(sk, o)
            variant = rng.choice((0, 1)) if kind in ("A2*", "E8") else None
            edge = rng.randrange(len(base.edges))
            lsk = ellskel.generalized.insert_E_fiber(base, edge, kind, variant)
            items.append((name, argv, fmt.format_labelled(lsk)))
    elif workload == "sweep":
        argv = ["analyze", "FILE", "--orientation-sweep", "--json"]
        for i in range(SWEEP_FILES):
            name = f"sweep-v{SWEEP_VERTICES}-{i}"
            rng = rng_for(name)
            sk = random_skeleton(ellskel, rng, SWEEP_VERTICES)
            o = random_orientation(ellskel, rng, sk)
            items.append((name, argv, fmt.format_skeleton(sk, o)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
