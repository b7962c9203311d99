"""Span tracing for the traced benchmark run.

Tracer.install() replaces each traced public function with a timing wrapper
at every module binding inside the drgcayley package, so calls made through
``from .x import f`` names are recorded as well as calls through the
defining module.  Spans are kept in memory (name, parent span, op id, start,
end) and written out by Tracer.dump() when the run ends.  Nothing is wrapped
unless install() is called, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# (defining module, function, span name); the span name is what the
# per-layer metrics use, e.g. is_drg_pairmask is the kernel's exact recheck.
TARGETS = (
    ("kernels", "census_scan", "kernels.census_scan"),
    ("kernels", "is_drg_pairmask", "kernels.recheck"),
    ("kernels", "scan_context", "kernels.scan_context"),
    ("classify", "census", "classify.census"),
    ("classify", "orbit_canonical", "classify.orbit_canonical"),
    ("classify", "orbit_leaders", "classify.orbit_leaders"),
    ("cayley", "build", "cayley.build"),
    ("cayley", "is_connected", "cayley.is_connected"),
    ("cayley", "distance_partition", "cayley.distance_partition"),
    ("drg", "check_drg", "drg.check_drg"),
    ("drg", "recognize", "drg.recognize"),
    ("structure", "antipodal_classes", "structure.antipodal_classes"),
    ("structure", "is_bipartite", "structure.is_bipartite"),
    ("structure", "quotient_by_subgroup", "structure.quotient_by_subgroup"),
    ("schur", "distance_module", "schur.distance_module"),
    ("schur", "is_schur_ring", "schur.is_schur_ring"),
    ("schur", "is_primitive", "schur.is_primitive"),
    ("fourier", "fourier_audit", "fourier.fourier_audit"),
    ("groups", "automorphism_group", "groups.automorphism_group"),
    ("groups", "closure_mask", "groups.closure_mask"),
)

PACKAGE = "drgcayley"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per span: [name id, parent row or -1, op id, start, end]
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op = -1  # -1 while setting up, then the index of the running op
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([nid, parent, self.op, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.rows[idx][4] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def calls(self, name: str) -> int:
        """Spans recorded so far under ``name`` (a running count)."""
        return self.counters.get(name + ".calls", 0)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self
        calls_key = name + ".calls"

        if inspect.isgeneratorfunction(fn):
            # time each resume; work between resumes belongs to the consumer
            def gen_wrapper(*args, **kwargs):
                tracer.add(calls_key, 1)
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.add(calls_key, 1)
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Funnel counts read from return values at the layer boundary."""
        if name == "kernels.census_scan":
            self.add("kernels.scanned", result.scanned)
            self.add("kernels.connected", result.connected)
            self.add("kernels.hits", len(result.hits))
        elif name == "classify.census":
            self.add("classify.hits", result.drg_sets)

    def install(self) -> None:
        for module in sorted({t[0] for t in TARGETS}):
            importlib.import_module(f"{PACKAGE}.{module}")
        loaded = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module, fn_name, span in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn_name)
            wrapper = self._wrap(original, span)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds and self seconds."""
        child = [0.0] * len(self.rows)
        for nid, parent, _op, t0, t1 in self.rows:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {
            name: {"s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, (nid, _parent, _op, t0, t1) in enumerate(self.rows):
            entry = out[self.names[nid]]
            entry["s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start", "end"],
            "spans": self.rows,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
