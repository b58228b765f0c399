"""In-memory span tracing of the `ellskel` layers, applied from outside.

`Tracer.install` replaces every public function of every package module
with a timing wrapper at each place the function is bound: its module
attribute and every `from .x import name` alias in the other modules, so
a call that crosses modules is traced whichever name it goes through.
`Tracer.uninstall` puts the originals back.

The small-matrix helpers of `exact` and the 2x2 `gl2_*` arithmetic of
`skeletons` are left unwrapped.  They are the inner arithmetic of their
callers (about 100k calls per pass), so their time counts as the calling
function's self time; `homology.h_gamma.self_s` thus includes the dense
form restriction.

A span is (function, start, end, parent span, item id), where start and
end bracket the call of the wrapped function.  Its self time is its
duration minus the whole time of its children's wrappers.  The time a
wrapper spends outside its call (taking the clock, the work counters
below) thus counts for no layer: the traced wall time is the layer self
times plus `unattributed`, which is the time outside the root spans plus
the bookkeeping of the other spans.  `dump` writes that bookkeeping with
each span, so the sum can be checked against the raw spans.
"""

from __future__ import annotations

import time
import types
from collections import Counter, defaultdict

LAYERS = ("exact", "lattices", "skeletons", "homology", "generalized",
          "pseudotrees", "skelfile", "cli")

UNWRAPPED = {
    "exact": {"shape", "zeros", "identity", "mat_copy", "transpose", "mat_mul",
              "mat_add", "mat_neg", "mat_scale", "mat_eq", "mat_vec",
              "is_symmetric", "hstack", "vstack", "submatrix"},
    "skeletons": {"gl2_mul", "gl2_apply", "symplectic"},
}

# functions reported one by one; `total_s` (callees in every layer included)
# is kept for the three homology entry points, whose cost is mostly the
# normal forms they call in `exact`, so that they can be ranked
FUNCTION_METRICS = {
    "exact.smith_normal_form": ("calls", "self_s"),
    "exact.hermite_normal_form": ("calls", "self_s"),
    "homology.h_gamma": ("self_s", "total_s"),
    "homology.mordell_weil": ("self_s", "total_s"),
    "homology.region_cohomology": ("calls", "self_s", "total_s"),
    "lattices.is_isometric": ("calls", "self_s"),
    "lattices.short_vectors": ("self_s",),
    "lattices.radical_and_quotient": ("self_s",),
    "skeletons.reorient": ("calls", "self_s"),
    "skeletons.fiber_types": ("self_s",),
}


def _max_bits(mats):
    return max((abs(x).bit_length() for M in mats for row in M for x in row),
               default=0)


def _count_normal_form(counters, args, result):
    M = args[0]
    rows, cols = len(M), len(M[0]) if M else 0
    counters["exact.cells_in"] += rows * cols
    counters["exact.max_dim"] = max(counters["exact.max_dim"], rows, cols)
    counters["exact.max_bits_out"] = max(counters["exact.max_bits_out"],
                                         _max_bits(result))


def _count_isometric(counters, args, result):
    flag = result[0] if isinstance(result, tuple) else result
    counters["lattices.is_isometric.true"] += bool(flag)


def _count_short_vectors(counters, args, result):
    counters["lattices.short_vectors.vectors"] += len(result)


def _count_trees(counters, args, result):
    counters["pseudotrees.trees"] += len(result)


COUNTERS = {
    "exact.hermite_normal_form": _count_normal_form,
    "exact.smith_normal_form": _count_normal_form,
    "lattices.is_isometric": _count_isometric,
    "lattices.short_vectors": _count_short_vectors,
    "pseudotrees.enumerate_marked_trees": _count_trees,
}


class Tracer:
    def __init__(self):
        self.names = []  # function names, indexed by a span's first field
        # [name index, start, end, parent, item, children's wrapper time,
        #  own wrapper time]
        self.spans = []
        self.counters = Counter()
        self.item = -1
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def install(self, package):
        """Wrap the public functions of every module of `package`."""
        modules = [package.__dict__[layer] for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in UNWRAPPED.get(layer, ())):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.counters = Counter()

    def _wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            enter = clock()
            spans = self.spans
            parent = stack[-1] if stack else -1
            record = [index, 0.0, 0.0, parent, self.item, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            end = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if count is not None:
                    count(self.counters, args, result)
                return result
            finally:
                if end is None:
                    end = clock()
                record[1] = start
                record[2] = end
                stack.pop()
                record[6] = clock() - enter
                if parent >= 0:
                    spans[parent][5] += record[6]

        return traced

    def summary(self):
        """Per-layer and per-function totals of the recorded spans."""
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        self_time = [0.0] * len(self.spans)
        for i, (idx, start, end, parent, _, child, _) in enumerate(self.spans):
            self_time[i] = end - start - child
        # a function's self_s keeps the self time of its same-layer callees:
        # spans are appended on entry, so children follow their parent
        layer_self = list(self_time)
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i][3]
            if parent >= 0 and layer_of[self.spans[parent][0]] == layer_of[
                    self.spans[i][0]]:
                layer_self[parent] += layer_self[i]
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i, (idx, start, end, parent, *_) in enumerate(self.spans):
            name = names[idx]
            layer = layers[layer_of[idx]]
            layer["calls"] += 1
            layer["self_s"] += self_time[i]
            f = funcs[name]
            f["calls"] += 1
            # a recursive call is already inside its outermost span
            if parent < 0 or names[self.spans[parent][0]] != name:
                f["self_s"] += layer_self[i]
                f["total_s"] += end - start
        return layers, funcs

    def dump(self, path):
        """Write the spans as tab-separated rows, times relative to the first.

        `wrapper_s` is the span's bookkeeping: its wrapper's time outside
        [start, end].
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\twrapper_s\n")
            for i, (idx, start, end, parent, item, _, outer) in enumerate(
                    self.spans):
                fh.write(f"{i}\t{self.names[idx]}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{parent}\t{item}\t"
                         f"{outer - (end - start):.9f}\n")
