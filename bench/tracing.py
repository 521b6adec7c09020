"""In-memory span tracer that wraps the library's public functions.

The wrappers live here, in the benchmark, so the library itself carries no
instrumentation.  ``Tracer.install()`` replaces each traced function in every
``steinmann`` module namespace that holds it (so ``from x import f`` call
sites are traced too) and ``uninstall()`` puts the originals back.

A span is ``(name, start, end, parent, request)``; spans of one operation
share the request id, and the operation itself is the root span ``op``.
Aggregates are kept per span name: calls, busy time (outermost spans of that
name only, so recursion is not counted twice) and self time (duration minus
the time covered by child spans).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time

# layer module -> public functions that get their own span
SPANNED = {
    "arrangement": ("enumerate_chambers", "enumerate_sign_chambers"),
    "ratgeom": ("strict_feasible", "rref", "solve", "kernel_basis", "rank_sparse", "cone_member"),
    "functionals": (
        "c_functional",
        "m_functional",
        "p_functional",
        "steinmann_relations",
        "is_steinmann",
        "steinmann_basis_coords",
        "derivative",
        "eulerian_element",
        "comb_coefficients",
        "dynkin",
        "egs_expansion",
        "reconstruct",
    ),
    "hopf": ("multiply", "comultiply", "antipode", "pairing", "tits_h", "change_basis"),
    "zie": ("based_keys", "reduce_tree"),
    "compositions": ("enumerate_compositions",),
    "preposets": ("preposet_of", "coprobes"),
    "cli": ("main",),
}

_STATS3 = ("calls", "busy_s", "self_s")


def _layer_metric_specs():
    """Every per-layer metric the traced run reports, in BENCHMARK.json order."""
    specs = []
    for mod, names in SPANNED.items():
        for name in names:
            base = f"{mod}.{name}"
            if base == "ratgeom.strict_feasible":
                stats = ("calls", "infeasible", "busy_s")
            elif base == "ratgeom.rref":
                stats = ("calls", "busy_s", "cells")
            elif base == "cli.main":
                stats = ("busy_s",)
            else:
                stats = _STATS3
            specs.extend(f"{base}.{s}" for s in stats)
        if mod == "arrangement":
            specs += [
                "arrangement.filter.calls",
                "arrangement.filter.vetoes",
                "arrangement.filter.busy_s",
                "arrangement.ray.hits",
                "arrangement.cache.misses",
                "arrangement.cache.writes",
                "arrangement.chamber_index.calls",
            ]
    specs += [
        "cli.import_s",
        "serialize.encode.busy_s",
        "serialize.decode.busy_s",
        "run.ops",
        "run.busy_s",
        "run.self_s",
        "trace.overhead_s",
        "trace.spans",
    ]
    return specs


LAYER_METRICS = _layer_metric_specs()


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Spans and counters for one process; records only while installed."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans = []  # (id, name, start, end, parent, request)
        self.dropped = 0
        self.agg = {}  # name -> [calls, busy, self]
        self.counters = {}
        self._stack = []  # open frames: [id, name, start, child_time]
        self._active = {}  # name -> open frames of that name
        self._next_id = 0
        self._request = None
        self._patched = []  # (module, attr, original)
        self._cache_state = {}
        self._feasible_lps = 0
        self.top_s = 0.0  # time in spans that have no parent
        self._last_op = None

    # -- span bookkeeping ---------------------------------------------------

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def _open(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        else:
            self.top_s += dur
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0.0, 0.0]
        rec[0] += 1
        if not self._active[name]:
            rec[1] += dur
        rec[2] += dur - child
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (sid, name, start, end, parent[0] if parent else None, self._request)
            )
        else:
            self.dropped += 1
        return dur

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def begin_request(self, request):
        self._request = request
        return self._open("op")

    def end_request(self, frame) -> float:
        dur = self._close(frame)
        self._request = None
        self._last_op = frame[0]
        return dur

    def adopt_child(self, child: dict):
        """Fold a traced child process into the last operation: its totals add
        to ours and its top-level spans become children of that operation."""
        for name, (calls, busy, self_t) in child["agg"].items():
            rec = self.agg.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += busy
            rec[2] += self_t
        for name, k in child["counters"].items():
            self.count(name, k)
        self.agg["op"][2] -= child["top_s"]
        base, op = self._next_id, self._last_op
        for sid, name, start, end, parent, _ in child["span_list"]:
            if len(self.spans) < self.max_spans:
                parent = op if parent is None else base + parent
                self.spans.append((base + sid, name, start, end, parent, op))
            else:
                self.dropped += 1
        self.dropped += child["spans"] - len(child["span_list"])
        self._next_id = base + child["next_id"]

    # -- installation -------------------------------------------------------

    def _replace(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "steinmann" or modname.startswith("steinmann.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        import steinmann.cli  # noqa: F401  (loads every layer module)
        from steinmann import arrangement, ratgeom, serialize

        mods = {name: sys.modules[f"steinmann.{name}"] for name in SPANNED}
        wrappers = {}
        for modname, names in SPANNED.items():
            for name in names:
                wrappers[(modname, name)] = self.span(
                    f"{modname}.{name}", getattr(mods[modname], name)
                )
        wrappers[("arrangement", "enumerate_chambers")] = self._wrap_enumerate_chambers(
            wrappers[("arrangement", "enumerate_chambers")], arrangement
        )
        wrappers[("arrangement", "enumerate_sign_chambers")] = self._wrap_sign_chambers(
            arrangement.enumerate_sign_chambers
        )
        wrappers[("ratgeom", "strict_feasible")] = self._wrap_strict_feasible(
            ratgeom.strict_feasible
        )
        wrappers[("ratgeom", "rref")] = self._wrap_rref(wrappers[("ratgeom", "rref")])
        for (modname, name), wrapper in wrappers.items():
            self._replace(getattr(mods[modname], name), wrapper)
        self._replace(arrangement.chamber_index, self._wrap_chamber_index(arrangement.chamber_index))
        for attr, value in list(vars(serialize).items()):
            if callable(value) and getattr(value, "__module__", None) == serialize.__name__:
                if attr.endswith("_to_json"):
                    self._replace(value, self.span("serialize.encode", value))
                elif attr.endswith("_from_json"):
                    self._replace(value, self.span("serialize.decode", value))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- layer-specific wrappers ---------------------------------------------

    def _wrap_chamber_index(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("arrangement.chamber_index.calls")
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_strict_feasible(self, fn):
        spanned = self.span("ratgeom.strict_feasible", fn)

        @functools.wraps(fn)
        def wrapper(rows, dim):
            witness = spanned(rows, dim)
            if witness is None:
                self.count("ratgeom.strict_feasible.infeasible")
            else:
                self._feasible_lps += 1
            return witness

        return wrapper

    def _wrap_rref(self, spanned):
        @functools.wraps(spanned)
        def wrapper(rows, width=None):
            rows = list(rows)
            w = width if width is not None else (len(rows[0]) if rows else 0)
            self.count("ratgeom.rref.cells", len(rows) * w)
            return spanned(rows, width)

        return wrapper

    def _wrap_filter(self, neighbor_ok):
        spanned = self.span("arrangement.filter", neighbor_ok)

        def wrapper(bits, j):
            ok = spanned(bits, j)
            if not ok:
                self.count("arrangement.filter.vetoes")
            return ok

        return wrapper

    def _wrap_sign_chambers(self, fn):
        spanned = self.span("arrangement.enumerate_sign_chambers", fn)

        @functools.wraps(fn)
        def wrapper(functionals, dim, seed=None, neighbor_ok=None):
            if self._active.get("arrangement.enumerate_chambers"):
                self.count("arrangement.cache.misses")
            if neighbor_ok is not None:
                neighbor_ok = self._wrap_filter(neighbor_ok)
            lps_before = self._feasible_lps
            found = spanned(functionals, dim, seed=seed, neighbor_ok=neighbor_ok)
            # every chamber after the seed came from a ray hit or a feasible LP
            self.count("arrangement.ray.hits", len(found) - 1 - (self._feasible_lps - lps_before))
            return found

        return wrapper

    def _wrap_enumerate_chambers(self, spanned, arrangement):
        def wrapper(g, *args, **kwargs):
            misses = self.counters.get("arrangement.cache.misses", 0)
            result = spanned(g, *args, **kwargs)
            if self.counters.get("arrangement.cache.misses", 0) != misses:
                cache_dir = kwargs.get("cache_dir") or arrangement.default_cache_dir()
                self.count("arrangement.cache.writes", self._cache_replacements(cache_dir))
            return result

        return functools.wraps(spanned)(wrapper)

    def _cache_replacements(self, cache_dir) -> int:
        """Cache files created or replaced since the last look at ``cache_dir``."""
        try:
            entries = list(os.scandir(cache_dir))
        except OSError:
            return 0
        changed = 0
        for entry in entries:
            if not entry.name.endswith(".jsonl"):
                continue
            st = entry.stat()
            key = (os.fspath(cache_dir), entry.name)
            stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
            if self._cache_state.get(key) != stamp:
                self._cache_state[key] = stamp
                changed += 1
        return changed

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals: per-name [calls, busy, self] plus counters."""
        return {"agg": self.agg, "counters": self.counters, "spans": self.span_count}

    @property
    def span_count(self):
        return len(self.spans) + self.dropped

    def export(self) -> dict:
        """Everything a parent process needs to adopt this tracer's work."""
        return {**self.summary(), "top_s": self.top_s, "span_list": self.spans,
                "next_id": self._next_id}

    def write_spans(self, path):
        """Write the kept spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                sid, name, start, end, parent, request = rec
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


def layer_metrics(summary: dict, ops: int, final: dict) -> dict:
    """Per-layer metrics: window totals divided by the operations run, except
    the values in ``final``, which are taken as given."""
    agg, counters = summary["agg"], summary["counters"]
    out = {}
    for name in LAYER_METRICS:
        if name in final:
            out[name] = final[name]
            continue
        base, stat = name.rsplit(".", 1)
        if name in counters:
            value = counters[name]
        elif base in agg and stat in _STATS3:
            value = agg[base][_STATS3.index(stat)]
        else:
            value = 0
        out[name] = value / ops if ops else 0.0
    return out
