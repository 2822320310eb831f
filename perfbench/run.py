"""Benchmark for the `air` toolkit: seeded workloads timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload web --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it generates seeded inputs, runs instances through the
program's public entry points until ``--seconds`` of timed work have been
done, checks every result independently (untimed), and prints the
end-to-end metrics.  Times are scaled by the host's speed, measured
between instances with a fixed kernel (calibrate.py).  With ``--trace 1`` it runs a fixed number of instances
twice each, once plain and once under the tracer, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import calibrate  # noqa: E402  (beside this file, first on sys.path)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 7321          # not the acceptance gate's AIR_SEED (20260813)
SETUP_REPEATS = 5
CHUNK = 8                    # instances generated at a time
DIGEST_INSTANCES = 10
SLOT_S = 0.5                 # timed work between calibrations
HARD_LIMIT_S = 150.0         # stop measuring this long after process start
IMPORT_CODE = "import air, air.cli, air.lefschetz"

END_TO_END = [("instances_per_s", "1/s"), ("instance_s.p50", "s"),
              ("instance_s.tail", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

# name, unit, (kind, key...): how each per-layer metric is read off the
# tracer.  Counts and times are per traced instance.
PER_LAYER = [
    ("exactgeom.check_genericity.calls", "count", ("calls", "exactgeom.check_genericity")),
    ("exactgeom.check_genericity.self_s", "s", ("self", "exactgeom.check_genericity")),
    ("exactgeom.orient.calls", "count", ("count", "exactgeom.orient.calls")),
    ("exactgeom.point_in_convex_polygon.calls", "count",
     ("count", "exactgeom.point_in_convex_polygon.calls")),
    ("linalg.solve.calls", "count", ("calls", "linalg.solve")),
    ("linalg.solve.self_s", "s", ("self", "linalg.solve")),
    ("linalg.inverse.calls", "count", ("calls", "linalg.inverse")),
    ("lp.feasible_point.calls", "count", ("calls", "lp.feasible_point")),
    ("lp.feasible_point.self_s", "s", ("self", "lp.feasible_point")),
    ("lp.feasible_point.infeasible_frac", "ratio",
     ("frac", "lp.feasible_point.infeasible", "lp.feasible_point")),
    ("secondary.is_regular.calls", "count", ("calls", "secondary.is_regular")),
    ("secondary.is_regular.self_s", "s", ("self", "secondary.is_regular")),
    ("secondary.gkz_vector.self_s", "s", ("self", "secondary.gkz_vector")),
    ("secondary.marked_is_regular.calls", "count", ("calls", "secondary.marked_is_regular")),
    ("secondary.marked_is_regular.self_s", "s", ("self", "secondary.marked_is_regular")),
    ("secondary.secondary_face_lattice.calls", "count",
     ("calls", "secondary.secondary_face_lattice")),
    ("secondary.secondary_face_lattice.self_s", "s",
     ("self", "secondary.secondary_face_lattice")),
    ("secondary.enumerate_triangulations.self_s", "s",
     ("self", "secondary.enumerate_triangulations")),
    ("secondary.triangulations_visited", "count", ("count", "secondary.triangulations_visited")),
    ("secondary.regular_frac", "ratio",
     ("frac", "secondary.is_regular.regular", "secondary.is_regular")),
    ("homotopy.build_web_cdga.self_s", "s", ("self", "homotopy.build_web_cdga")),
    ("homotopy.web_generators", "count", ("count", "homotopy.web_generators")),
    ("homotopy.check_d_squared.self_s", "s", ("self", "homotopy.check_d_squared")),
    ("homotopy.build_ainf.self_s", "s", ("self", "homotopy.build_ainf")),
    ("homotopy.convex_chains.calls", "count", ("calls", "homotopy.convex_chains")),
    ("homotopy.check_stasheff.self_s", "s", ("self", "homotopy.check_stasheff")),
    ("infrared.zeta_order.calls", "count", ("calls", "infrared.zeta_order")),
    ("infrared.zeta_order.self_s", "s", ("self", "infrared.zeta_order")),
    ("infrared.enumerate_convex_paths.calls", "count", ("calls", "infrared.enumerate_convex_paths")),
    ("infrared.enumerate_convex_paths.self_s", "s", ("self", "infrared.enumerate_convex_paths")),
    ("infrared.paths_summed", "count", ("count", "infrared.paths_summed")),
    ("infrared.stokes_matrix.calls", "count", ("calls", "infrared.stokes_matrix")),
    ("infrared.stokes_matrix.self_s", "s", ("self", "infrared.stokes_matrix")),
    ("infrared.wall_cross_report.self_s", "s", ("self", "infrared.wall_cross_report")),
    # the oracle runs only in the untimed checks
    ("infrared.stokes_matrix_oracle.self_s", "s",
     ("verify_self", "infrared.stokes_matrix_oracle")),
    ("perv.braid_mutate.calls", "count", ("calls", "perv.braid_mutate")),
    ("perv.braid_mutate.self_s", "s", ("self", "perv.braid_mutate")),
    ("perv.monodromy_charpoly.self_s", "s", ("self", "perv.monodromy_charpoly")),
    ("lefschetz.critical_data.calls", "count", ("calls", "lefschetz.critical_data")),
    ("lefschetz.critical_data.self_s", "s", ("self", "lefschetz.critical_data")),
    ("lefschetz.fiber_basis.calls", "count", ("calls", "lefschetz.fiber_basis")),
    ("lefschetz.track_fiber.calls", "count", ("calls", "lefschetz.track_fiber")),
    ("lefschetz.track_fiber.self_s", "s", ("self", "lefschetz.track_fiber")),
    ("lefschetz.snap_error.max", "coord", ("max", "lefschetz.snap_error.max")),
    ("cli.run_cli.self_s", "s", ("self", "cli.run_cli")),
    ("cli.stdout_bytes", "B", ("runner", "cli.stdout_bytes")),
    ("trace.instances_per_s.untraced", "1/s", ("runner", "untraced_ips")),
    ("trace.instances_per_s.traced", "1/s", ("runner", "traced_ips")),
    ("trace.overhead_frac", "ratio", ("runner", "overhead_frac")),
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_threads() -> None:
    # numpy's eigenvalue seeds must not compete for the cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "air", "__init__.py")):
        fail(f"no program source at {os.path.relpath(SRC, ROOT)}/air; "
             "run from the root of a checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    import air
    if os.path.dirname(os.path.abspath(air.__file__)) != os.path.join(SRC, "air"):
        fail(f"imported air from {air.__file__}, not from this checkout")
    for info in pkgutil.iter_modules(air.__path__):
        importlib.import_module(f"air.{info.name}")


def program_caches() -> List:
    """Every lru_cache in the program, cleared before each instance so that
    each instance starts as cold as in a fresh process."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "air" or name.startswith("air.")):
            continue
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)) and \
                    hasattr(val, "cache_info") and val not in found:
                found.append(val)
    return found


def environment() -> Dict[str, object]:
    import mpmath
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


# -- inputs -------------------------------------------------------------------------


class Inputs:
    """Instance files under .bench_out/<workload>/, generated a chunk at a time."""

    def __init__(self, workload, seed: int):
        self.wl, self.seed = workload, seed
        self.dir = os.path.join(OUT, workload.name)
        self.ready = 0

    def path(self, index: int) -> str:
        return os.path.join(self.dir, f"{index:05d}")

    def write_chunk(self, first: int) -> None:
        for index in range(first, first + CHUNK):
            d = self.path(index)
            os.makedirs(d, exist_ok=True)
            for fname, data in self.wl.generate(self.seed, index).items():
                with open(os.path.join(d, fname), "wb") as f:
                    f.write(data)
        self.ready = max(self.ready, first + CHUNK)

    def get(self, index: int) -> str:
        while index >= self.ready:
            self.write_chunk(self.ready)
        return self.path(index)


def measure_setup(inputs: Inputs) -> Tuple[float, List[float], List[float], float]:
    """Median cold start (a fresh interpreter importing the program) plus
    median generation of the first chunk of inputs, each scaled by the
    machine speed measured around it."""
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate.measure()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        imports.append((time.perf_counter() - t0, before, calibrate.measure()))
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs.dir, ignore_errors=True)
        before = calibrate.measure()
        t0 = time.perf_counter()
        inputs.write_chunk(0)
        gens.append((time.perf_counter() - t0, before, calibrate.measure()))
    imp, gen = calibrate.scaled(imports), calibrate.scaled(gens)
    raw = statistics.median(t for t, _, _ in imports) + \
        statistics.median(t for t, _, _ in gens)
    return statistics.median(imp) + statistics.median(gen), imp, gen, raw


# -- running instances --------------------------------------------------------------


def run_one(wl, inst_dir: str, caches):
    from workloads import Result
    for c in caches:
        c.cache_clear()
    t0 = time.perf_counter()
    try:
        return wl.run(inst_dir)
    except Exception as exc:  # a raise is a failed instance, not a crash
        return Result(seconds=time.perf_counter() - t0,
                      error=f"{type(exc).__name__}: {exc}")


def check_one(wl, inst_dir: str, res, checks: Counter) -> List[str]:
    if res.error:
        return [res.error]
    try:
        return wl.verify(inst_dir, res, checks)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def tail(times: List[float]) -> Tuple[float, int]:
    """The highest whole percentile with at least ten instances beyond it,
    by nearest rank, and that percentile.  Below 20 instances no such
    percentile reaches the median, and the median stands in."""
    s = sorted(times)
    n = len(s)
    p = max(50, 100 * (n - 10) // n)
    return s[math.ceil(p * n / 100) - 1], p


def digest(outputs: List[bytes]) -> str:
    h = hashlib.sha256()
    for data in outputs[:DIGEST_INSTANCES]:
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


class Run:
    def __init__(self, wl, seed: int, seconds: float):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.inputs = Inputs(wl, seed)
        self.checks: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.outputs: List[bytes] = []
        self.problems: List[str] = []
        self.notes: List[str] = []

    def record(self, index: int, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"instance {index}: {'; '.join(problems)}")

    def measure(self, caches) -> Dict[str, float]:
        """Untimed-checked instances until --seconds of scaled timed work.
        The calibration kernel runs between slots of at least SLOT_S of
        timed work; each instance time is scaled by the speed around its
        slot.  Stopping on scaled time keeps the instance count, and so the
        tail percentile, independent of the host's speed."""
        raw: List[float] = []
        times: List[float] = []
        verified = 0
        before = calibrate.measure()
        while sum(times) < self.seconds and \
                time.perf_counter() - PROCESS_START < HARD_LIMIT_S:
            slot: List[float] = []
            while sum(slot) < SLOT_S:
                index = len(raw) + len(slot)
                d = self.inputs.get(index)
                res = run_one(self.wl, d, caches)
                slot.append(res.seconds)
                self.outputs.append(res.stdout)
                problems = check_one(self.wl, d, res, self.checks)
                self.record(index, problems)
                verified += not problems
            after = calibrate.measure()
            factor = calibrate.speed_factor(before, after)
            raw += slot
            times += [t * factor for t in slot]
            before = after
        value, pct = tail(times)
        self.notes = [
            f"instances_per_s: {verified} verified in {sum(times):.3f} s timed "
            f"(scaled; {sum(raw):.3f} s as measured)",
            f"instance_s.p50: median of {len(times)} instances "
            f"(scaled; {statistics.median(raw):.4f} s as measured)",
            f"instance_s.tail: p{pct} of {len(times)} instances "
            f"({len(times) - math.ceil(pct * len(times) / 100)} beyond)",
            f"times are scaled to a host where the calibration kernel takes "
            f"{calibrate.REFERENCE_S} s; see perfbench/calibrate.py",
        ]
        return {"instances_per_s": verified / sum(times),
                "instance_s.p50": statistics.median(times),
                "instance_s.tail": value}

    def trace(self, caches, tracer) -> Dict[str, float]:
        """A fixed number of instances, each run plain and traced, in
        alternating order; checks run traced, in the verify phase."""
        # nominal_s is a rough instance time on the tuning machine.  The
        # count depends on it and --seconds, never on the speed measured,
        # so counts such as triangulations_visited repeat for a seed.
        count = max(3, round(self.seconds / 2 / self.wl.nominal_s))
        plain_s = traced_s = 0.0
        stdout_bytes = 0
        for index in range(count):
            if time.perf_counter() - PROCESS_START > HARD_LIMIT_S:
                break
            d = self.inputs.get(index)
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if not traced:
                    plain = run_one(self.wl, d, caches)
                    plain_s += plain.seconds
                    continue
                tracer.install()
                try:
                    with tracer.root("instance"):
                        res = run_one(self.wl, d, caches)
                    with tracer.root("verify"):
                        problems = check_one(self.wl, d, res, self.checks)
                finally:
                    tracer.uninstall()
                traced_s += res.seconds
                stdout_bytes += res.cli_bytes
            if not problems and plain.stdout != res.stdout:
                problems = ["traced and plain runs print different bytes"]
            self.outputs.append(res.stdout)
            self.record(index, problems)
        n = self.attempted
        runner = {"cli.stdout_bytes": stdout_bytes / n,
                  "untraced_ips": n / plain_s, "traced_ips": n / traced_s,
                  "overhead_frac": traced_s / plain_s - 1.0}
        self.notes = [f"traced {n} instances; per-layer values are per instance",
                      f"span tree problems: {tracer.problems() or 'none'}"]
        if tracer.missing:
            self.notes.append(f"not found in the program: {tracer.missing}")
        return layer_metrics(tracer, n, runner)


def layer_metrics(tracer, n: int, runner: Dict[str, float]) -> Dict[str, float]:
    totals = tracer.layer_totals()
    counters = tracer.counters
    out = {}
    for name, _, (kind, *keys) in PER_LAYER:
        key = keys[0]
        if kind == "calls":
            value = totals.get((0, key), (0, 0.0))[0] / n
        elif kind == "self":
            value = totals.get((0, key), (0, 0.0))[1] / n
        elif kind == "verify_self":
            value = totals.get((1, key), (0, 0.0))[1] / n
        elif kind == "count":
            value = counters[(0, key)] / n
        elif kind == "frac":
            calls = totals.get((0, keys[1]), (0, 0.0))[0]
            value = counters[(0, key)] / calls if calls else 0.0
        elif kind == "max":
            value = tracer.maxima.get(key, 0.0)
        else:
            value = runner[key]
        out[name] = value
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pin_threads()
    import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    run = Run(wl, args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    caches = program_caches()

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.prepare()
        metrics = run.trace(caches, tracer)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(os.path.join(OUT, f"spans-{wl.name}.tsv"))
    else:
        setup_s, imports, gens, setup_raw = measure_setup(run.inputs)
        metrics = run.measure(caches)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
        run.notes.append(
            f"setup_s: median cold import {statistics.median(imports):.4f} s + "
            f"median generation of {CHUNK} inputs {statistics.median(gens):.4f} s, "
            f"{SETUP_REPEATS} repeats each, scaled ({setup_raw:.4f} s as measured)")

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for note in run.notes:
        print(f"# {note}")
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    print(f"checks {json.dumps(dict(sorted(run.checks.items())))}")
    print(f"digest sha256 of stdout, first "
          f"{min(DIGEST_INSTANCES, len(run.outputs))} instances: "
          f"{digest(run.outputs)}")
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
