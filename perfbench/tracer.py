"""Spans and counters around the program's public functions.

The tracer wraps the functions listed in ``SPANS`` and ``COUNTS`` from the
outside: it rebinds every ``air.*`` module attribute that refers to one of
them, so a function imported into several modules (``check_genericity`` in
``infrared``, ``homotopy`` and ``acceptance``) is seen wherever it is
called from.  Nothing under ``src/`` changes.

A span is (name, start, end, parent), kept in flat in-memory arrays and
written out by ``write``.  Self time is a span's duration minus the
durations of its child spans.  Counted functions get no span; their time
stays in the caller's self time.

Every span and count carries the phase that was open when it began:
``instance`` for the timed calls and ``verify`` for the untimed checks, so
checks do not inflate the layer numbers of the timed work.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# layer -> public functions that get a span ("Class.method" for methods)
SPANS: Dict[str, List[str]] = {
    "exactgeom": ["check_genericity"],
    "linalg": ["solve", "inverse"],
    "lp": ["LinearSystem.feasible_point"],
    "secondary": ["is_regular", "marked_is_regular", "gkz_vector",
                  "enumerate_triangulations", "secondary_face_lattice"],
    "homotopy": ["build_web_cdga", "check_d_squared", "build_ainf",
                 "check_stasheff", "convex_chains"],
    "infrared": ["zeta_order", "enumerate_convex_paths", "stokes_matrix",
                 "stokes_matrix_oracle", "wall_cross_report", "fs_filtration",
                 "stokes_rays"],
    "perv": ["braid_mutate", "braid_word", "monodromy_charpoly"],
    "lefschetz": ["critical_data", "fiber_basis", "track_fiber",
                  "matrix_diagram_from_W"],
    "cli": ["run_cli"],
}

# layer -> hot predicates that are counted only
COUNTS: Dict[str, List[str]] = {
    "exactgeom": ["orient", "point_in_convex_polygon"],
}

PHASES = ("instance", "verify")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase_of = array("b")
        self.stack: List[int] = []
        self.phase = [0]                       # index into PHASES
        self.counters: Counter = Counter()     # (phase, key) -> count
        self.maxima: Dict[str, float] = {}
        self.missing: List[str] = []
        self._bindings: List[Tuple[object, str, object, object]] = []

    # -- spans -------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.phase_of.append(self.phase[0])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, phase: str):
        """A root span named after the phase it opens."""
        self.phase[0] = PHASES.index(phase)
        idx = self._open(self._id(phase))
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        opener, closer = self._open, self._close
        after = self._tally(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _tally(self, name: str) -> Optional[Callable]:
        """Counters read off a function's result, at the boundary."""
        counters, phase = self.counters, self.phase

        def add(key, value):
            counters[(phase[0], key)] += value

        if name == "lp.feasible_point":
            return lambda r: add("lp.feasible_point.infeasible", r is None)
        if name == "secondary.is_regular":
            return lambda r: add("secondary.is_regular.regular", bool(r))
        if name == "secondary.enumerate_triangulations":
            return lambda r: add("secondary.triangulations_visited", len(r))
        if name == "homotopy.build_web_cdga":
            return lambda r: add("homotopy.web_generators", len(r.generators))
        if name == "infrared.enumerate_convex_paths":
            return lambda r: add("infrared.paths_summed", len(r))
        if name == "lefschetz.matrix_diagram_from_W":
            return lambda r: self.note_max("lefschetz.snap_error.max",
                                           getattr(r, "snap_error", 0.0))
        return None

    def _counted(self, name: str, fn: Callable) -> Callable:
        counters, phase, key = self.counters, self.phase, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[(phase[0], key)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing the wrappers ------------------------------------------------

    def prepare(self) -> None:
        """Build every wrapper and find every binding; install() applies them."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "air" or k.startswith("air."))]
        for kinds, make in ((SPANS, self._spanned), (COUNTS, self._counted)):
            for layer, fns in kinds.items():
                mod = sys.modules.get(f"air.{layer}")
                for fname in fns:
                    label = f"{layer}.{fname.split('.')[-1]}"
                    if "." in fname:
                        cls_name, meth = fname.split(".")
                        cls = getattr(mod, cls_name, None)
                        orig = getattr(cls, "__dict__", {}).get(meth)
                        if orig is None:
                            self.missing.append(label)
                            continue
                        self._bindings.append((cls, meth, orig, make(label, orig)))
                        continue
                    orig = getattr(mod, fname, None)
                    if orig is None:
                        self.missing.append(label)
                        continue
                    wrapper = make(label, orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._bindings.append((m, attr, orig, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    # -- reading the spans ---------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_totals(self) -> Dict[Tuple[int, str], Tuple[int, float]]:
        """(phase, span name) -> (calls, total self seconds)."""
        out: Dict[Tuple[int, str], Tuple[int, float]] = {}
        for i, own in enumerate(self.self_times()):
            key = (self.phase_of[i], self.names[self.name[i]])
            calls, total = out.get(key, (0, 0.0))
            out[key] = (calls + 1, total + own)
        return out

    def problems(self) -> List[str]:
        """Structural checks: children inside parents, every span closed,
        and self times of each root's tree summing to the root's duration."""
        out = []
        if self.stack:
            out.append(f"{len(self.stack)} spans left open")
        own = self.self_times()
        root_sum: Dict[int, float] = {}
        for i, p in enumerate(self.parent):
            if self.end[i] < self.start[i]:
                out.append(f"span {i} ends before it starts")
            if p >= 0 and not (self.start[p] <= self.start[i] and
                               self.end[i] <= self.end[p]):
                out.append(f"span {i} lies outside its parent {p}")
            r = i
            while self.parent[r] >= 0:
                r = self.parent[r]
            root_sum[r] = root_sum.get(r, 0.0) + own[i]
        for r, total in root_sum.items():
            if abs(total - (self.end[r] - self.start[r])) > 1e-6:
                out.append(f"self times of root {r} do not sum to its duration")
        return out[:5]

    def write(self, path: str) -> None:
        """One line per span: index, name, phase, start, end, parent."""
        with open(path, "w") as f:
            f.write("index\tname\tphase\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t"
                        f"{PHASES[self.phase_of[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\n")
