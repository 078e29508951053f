"""In-memory span recorder for the traced benchmark run.

The library is instrumented from outside: each listed public function is
replaced by a wrapper in every ``aglstab`` module that holds it, and each
listed method is replaced on its class.  A wrapper records one span per
call (name, start, end, parent span, item id) while the tracer is active
and costs one flag test while it is not.  Spans stay in memory until the
run ends; ``write`` stores them gzip-compressed.

A span's self time is its duration minus the part of its interval that
its children cover; children may nest or overlap (a generator resumed
inside another span), so the covered part is the length of the union of
the children's intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: public functions wrapped in every aglstab module that binds them
FUNCTIONS = {
    "ffield": ("span",),
    "agl": ("immediate_supergroups", "join", "join_pair",
            "class_representative"),
    "counting": ("count_N", "mult_order", "class_shapes", "enumerate_params"),
    "oracle": ("count_N_bruteforce", "is_exact_stabilizer", "lattice_terms",
               "stabilizer", "n_orbit_unions"),
    "designs": ("orbit_design", "design_to_code", "a2_determinations"),
    "cli": ("main",),
}

#: (module, class, method) wrapped on the class; a constructor's span is
#: named after the class
METHODS = (
    ("ffield", "Field", "__init__"),
    ("ffield", "Subspace", "__init__"),
    ("agl", "Subgroup", "orbits"),
    ("counting", "ClassParams", "__init__"),
)


def self_times(starts, ends, parents) -> array:
    """Self time of every span: duration minus the union of its children's
    intervals clipped to the span.  ``parents[i]`` is -1 for a root.

    Children are visited in start order (the recorder stores spans in that
    order already), and each parent keeps how far its covered part
    reaches, so a child overlapping an earlier sibling adds only its
    uncovered tail.
    """
    n = len(starts)
    covered = array("q", bytes(8 * n))
    reach = array("q", starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    for c in order:
        p = parents[c]
        if p < 0:
            continue
        lo, hi = max(starts[c], reach[p]), min(ends[c], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (e - s - c for s, e, c in zip(starts, ends, covered)))


class Tracer:
    """Span store plus the counters recorded at the wrapped boundaries."""

    #: the library's layers, one per module
    layers = tuple(FUNCTIONS)

    def __init__(self):
        self.name_table: list[str] = []
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.items = array("q")
        self.counters: Counter = Counter()
        self.mult_order_args: set = set()
        self.active = False
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._selfs = array("q")

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        tracer = self
        clock = time.perf_counter_ns
        if name not in self.name_table:
            self.name_table.append(name)
        name_id = self.name_table.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.starts)
            stack = tracer._stack
            tracer.names.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.items.append(tracer.item)
            tracer.ends.append(0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _on_return(self, name: str):
        counters = self.counters
        if name == "counting.mult_order":
            def hook(args, result):
                self.mult_order_args.add(args)
        elif name == "oracle.is_exact_stabilizer":
            def hook(args, result):
                q = args[0].field.q
                counters["oracle.exact_hits"] += bool(result)
                counters["oracle.maps_tested"] += q * (q - 1)
        elif name == "oracle.n_orbit_unions":
            def hook(args, result):
                counters["oracle.candidates"] += result
        elif name == "designs.design_to_code":
            def hook(args, result):
                matrix = args[0]
                counters["designs.pair_row_ops"] += (
                    matrix.v * (matrix.v - 1) // 2 * matrix.b)
        else:
            return None
        return hook

    def install(self) -> None:
        """Wrap every listed name in every loaded aglstab module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "aglstab" or key.startswith("aglstab.")]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"aglstab.{short}"]
            for attr in names:
                original = getattr(home, attr)
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, original, self._on_return(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapped)
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"aglstab.{short}"], cls_name)
            original = cls.__dict__[attr]
            name = f"{short}.{cls_name}"
            if attr != "__init__":
                name += f".{attr}"
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- reporting -----------------------------------------------------------

    def summary(self, keep) -> dict[str, dict[str, float]]:
        """calls and self seconds per span name, over the spans whose item
        id passes ``keep``; set-up spans have item id -1."""
        if len(self._selfs) != len(self.starts):
            self._selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        table = self.name_table
        for name_id, item, ns in zip(self.names, self.items, self._selfs):
            if keep(item):
                rec = out[table[name_id]]
                rec["calls"] += 1
                rec["self_s"] += ns / 1e9
        return out

    def write(self, path) -> None:
        """Store the spans as JSON lines: a header naming the span names
        and columns, then one [name id, start ns, end ns, parent, item]
        array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.name_table,
                  "columns": ["name", "start_ns", "end_ns", "parent", "item"]}
        rows = zip(self.names, self.starts, self.ends, self.parents, self.items)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for row in rows:
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
