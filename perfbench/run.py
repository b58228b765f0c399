"""Benchmark of the `ellskel` command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {series,analyze,sweep,all}
        [--seed N] [--seconds S] [--trace {0,1}] [--items NAME,...]

One process, no threads.  The package is imported from `src/` next to
this directory and driven only through `ellskel.cli.main`; each item is
one `main(argv)` call with stdout captured.  A run:

1. sets up (fresh import of the package, input generation from the
   seed, writing the `.skel` files) SETUP_REPEATS times;
2. runs the whole item list ("a pass") repeatedly, starting another pass
   only while it is expected to end within `--seconds`; without tracing,
   it sets up SETUP_REPEATS times again after every pass, so that the
   set-up times are taken across the whole run, like the pass times;
3. without tracing, spends the time left on re-running single items,
   round-robin, each one only if it is expected to end within `--seconds`,
   and then sets up SETUP_REPEATS times once more;
4. checks every output (see `check_output`, `check_golden`) and counts
   failures.

With `--trace 0` it reports the end-to-end metrics: the median pass wall
time, the median over items of each item's median time (all its runs),
the median over passes of the slowest item, the median set-up time and
peak resident memory.  With
`--trace 1` it runs one untraced reference pass, then traced passes,
asserts that traced and untraced outputs are byte-identical, and reports
the per-layer metrics (means over the traced passes); the spans of the
last traced pass are written to `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every item passed its checks, 1 when one failed and 2 when the benchmark
could not run (no package to import, `python -O`, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_REPEATS = 10  # per group of set-ups; see the steps above

END_TO_END = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units():
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, fields in tracing.FUNCTION_METRICS.items():
        for field in fields:
            units[f"{name}.{field}"] = "count" if field == "calls" else "s"
    units.update({
        "exact.cells_in": "count",
        "exact.max_dim": "count",
        "exact.max_bits_out": "bits",
        "lattices.isometric_true_frac": "ratio",
        "lattices.short_vectors.vectors": "count",
        "pseudotrees.trees": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    del units["cli.calls"]
    return units


PER_LAYER = _per_layer_units()


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Item:
    name: str
    argv: list
    key: str  # sha256 of the argv template and the input file text


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def import_package():
    """A fresh import of `ellskel` from SRC."""
    for name in list(sys.modules):
        if name == "ellskel" or name.startswith("ellskel."):
            del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.import_module("ellskel.cli")
    package = sys.modules["ellskel"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ellskel was imported from {package.__file__}")
    return package


def setup(workload, seed, only, work_root):
    """Import, generate the inputs and write them; returns (package, items, s)."""
    # the modules of an earlier import are cyclic garbage; freeing them
    # first keeps them out of this set-up's time and the peak memory
    gc.collect()
    start = time.perf_counter()
    package = import_package()
    work = tempfile.mkdtemp(dir=work_root)
    items = []
    for name, argv, text in workloads.build_items(package, workload, seed):
        if only is not None and name not in only:
            continue
        key = sha256(" ".join(argv) + "\n" + (text or ""))
        if text is not None:
            path = os.path.join(work, name + ".skel")
            with open(path, "w") as fh:
                fh.write(text)
            argv = [path if a == "FILE" else a for a in argv]
        items.append(Item(name, argv, key))
    return package, items, time.perf_counter() - start


def run_item(main, item):
    """(time, (exit code, stdout)) of one `main(argv)` call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = main(item.argv)
    except Exception as e:  # an item that raises is a failed item
        rc = f"raised {type(e).__name__}: {e}"
    return time.perf_counter() - start, (rc, out.getvalue())


def run_pass(main, items, tracer=None):
    """(wall time, per-item times, per-item (exit code, stdout))."""
    times = []
    outputs = []
    begin = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        elapsed, output = run_item(main, item)
        times.append(elapsed)
        outputs.append(output)
    return time.perf_counter() - begin, times, outputs


def check_golden(item, out, goldens, seed):
    """None if the output matches its golden, else the reason it does not.

    At the seed the goldens were recorded for, every item must have a
    golden with the same input.  At other seeds an output is compared only
    where the input is the same (the `series` and chain-tree items).
    """
    golden = goldens["items"].get(item.name)
    if golden is None or golden["input"] != item.key:
        if seed == goldens["seed"]:
            return "input differs from the golden; re-record the goldens"
        return None
    if golden["output"] != sha256(out):
        return "output differs from the golden"
    return None


def check_output(workload, item, rc, out):
    """None if the item's output passes the checks that hold for every
    seed, else the reason it does not."""
    if rc != 0:
        return f"exit {rc}"
    try:
        doc = json.loads(out)
        if workload == "series":
            return None if doc["failures"] == 0 else "series mismatch"
        T = doc["transcendental"]
        if doc.get("labelled"):
            if not doc["kernel_cycles_span_radical"]:
                return "region cycles do not span the radical"
            if T["det"] == 0:
                return "quotient by the radical is degenerate"
        elif doc["invariants"]["rank_T"] != T["rank"]:
            return "rank_T differs from the rank of T"
        if workload == "sweep":
            counts = doc["counts"]
            classes = 2 ** (counts["edges"] - counts["vertices"] + 1)
            if len(doc["orientation_sweep"]) != classes:
                return "wrong number of orientation classes"
    except (ValueError, KeyError, TypeError) as e:
        return f"malformed output: {type(e).__name__} {e}"
    return None


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


def item_medians(passes, extra):
    """Each item's time: the median over its runs in the passes and after."""
    return [statistics.median([*times, *more])
            for times, more in zip(zip(*(p[1] for p in passes)), extra)]


def end_to_end_metrics(passes, extra, setup_times):
    values = {
        "wall_s": statistics.median(wall for wall, _, _ in passes),
        "item_p50_s": statistics.median(item_medians(passes, extra)),
        "item_max_s": statistics.median(max(times) for _, times, _ in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(traced, reference_wall):
    """Means over the traced passes of the tracer's totals."""
    n = len(traced)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for wall, layers, funcs, counters in traced:
        for layer in tracing.LAYERS:
            stats = layers.get(layer, {"calls": 0, "self_s": 0.0})
            for field in ("calls", "self_s"):
                if f"{layer}.{field}" in values:
                    values[f"{layer}.{field}"] += stats[field] / n
        for name, fields in tracing.FUNCTION_METRICS.items():
            for field in fields:
                values[f"{name}.{field}"] += funcs.get(name, {}).get(field, 0) / n
        for name in ("exact.cells_in", "lattices.short_vectors.vectors",
                     "pseudotrees.trees"):
            values[name] += counters[name] / n
        for name in ("exact.max_dim", "exact.max_bits_out"):
            values[name] = max(values[name], counters[name])
        values["trace.wall_s"] += wall / n
    calls = values["lattices.is_isometric.calls"]
    true = sum(c["lattices.is_isometric.true"] for *_, c in traced) / n
    values["lattices.isometric_true_frac"] = true / calls if calls else 0.0
    values["trace.overhead_s"] = values["trace.wall_s"] - reference_wall
    values["trace.unattributed_s"] = values["trace.wall_s"] - sum(
        values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def fill(main, items, medians, begin, seconds, check):
    """Re-run single items, round-robin, while each is expected to end
    within the budget; returns each item's extra times."""
    extra = [[] for _ in items]
    ran = True
    while ran:
        ran = False
        for i, item in enumerate(items):
            if time.perf_counter() - begin + medians[i] <= seconds:
                elapsed, output = run_item(main, item)
                extra[i].append(elapsed)
                check([item], [output])
                ran = True
    return extra


def run_workload(workload, seed, seconds, trace, only, goldens):
    work_root = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setup_times = []

        def set_up():
            for _ in range(SETUP_REPEATS):
                package, items, elapsed = setup(workload, seed, only, work_root)
                setup_times.append(elapsed)
            return package, items

        package, items = set_up()
        if not items:
            raise UsageError(f"workload {workload} has no item in {sorted(only)}")
        failures = []

        def check(ran, outputs):
            for item, (rc, out) in zip(ran, outputs):
                reason = (check_output(workload, item, rc, out)
                          or check_golden(item, out, goldens, seed))
                if reason is not None:
                    failures.append(f"{item.name}: {reason}")

        def more(begin, last_wall):
            return time.perf_counter() - begin + last_wall <= seconds

        begin = time.perf_counter()
        passes = []
        # a traced run keeps one untraced pass, as the reference
        while not passes or not trace and more(begin, passes[-1][0]):
            gc.collect()
            passes.append(run_pass(package.cli.main, items))
            check(items, passes[-1][2])
            if not trace:
                package, items = set_up()
        attempted = len(items) * len(passes)
        extra = [[] for _ in items]
        if not trace:
            extra = fill(package.cli.main, items, item_medians(passes, extra),
                         begin, seconds, check)
            attempted += sum(map(len, extra))
            set_up()
            metrics = end_to_end_metrics(passes, extra, setup_times)
        else:
            reference = passes[0]
            tracer = tracing.Tracer()
            tracer.install(package)
            traced = []
            try:
                while not traced or more(begin, traced[-1][0]):
                    tracer.reset()
                    gc.collect()
                    wall, _, outputs = run_pass(package.cli.main, items, tracer)
                    check(items, outputs)
                    attempted += len(items)
                    for item, got, want in zip(items, outputs, reference[2]):
                        if got != want:
                            failures.append(f"{item.name}: traced output differs")
                    traced.append((wall, *tracer.summary(), tracer.counters))
            finally:
                tracer.uninstall()
            metrics = per_layer_metrics(traced, statistics.median(
                wall for wall, _, _ in passes))
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            spans_path = os.path.join(HERE, "out", f"spans-{workload}-{seed}.tsv")
            tracer.dump(spans_path)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    report(workload, seed, items, passes, extra, attempted, failures, metrics)
    if trace:
        print(f"spans of the last traced pass: {os.path.relpath(spans_path)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def report(workload, seed, items, passes, extra, attempted, failures, metrics):
    print(f"workload {workload}  seed {seed}  items {len(items)}  "
          f"untraced passes {len(passes)}  extra item runs "
          f"{sum(map(len, extra))}  attempted {attempted}  "
          f"failed {len(failures)}  fail_frac {len(failures) / attempted:g}")
    print("  untraced pass walls (s): "
          + " ".join(f"{wall:.3f}" for wall, _, _ in passes))
    print("  item times, median over the untraced runs (s): " + " ".join(
        f"{item.name}={t:.3f}" for item, t in
        zip(items, item_medians(passes, extra))))
    for reason in failures:
        print(f"  FAIL {reason}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']}")
    if "trace.wall_s" in metrics:
        wall = metrics["trace.wall_s"]["value"]
        print("  layer shares of the traced wall time:")
        for layer in tracing.LAYERS + ("trace.unattributed",):
            key = layer + ("_s" if layer.startswith("trace") else ".self_s")
            print(f"    {layer:20s} {100 * metrics[key]['value'] / wall:6.2f}%")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", help="comma-separated subset of item names")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: the package checks its results with assert; "
              "run without -O", file=sys.stderr)
        return 2
    only = set(args.items.split(",")) if args.items else None
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        goldens = load_goldens()
        results = [run_workload(w, args.seed, args.seconds, args.trace, only,
                                goldens) for w in names]
    except ImportError as e:
        print(f"error: cannot import ellskel from {SRC}: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": m for w, r in zip(names, results)
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
