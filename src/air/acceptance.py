"""The acceptance gate: eleven seeded, timed, self-contained checks.

Each criterion function returns a CriterionResult and never raises on a
mere property failure; the CLI `verify` subcommand and the test suite both
run these and report one pass/fail line per criterion.  The seed comes from
the AIR_SEED environment variable (default 20260813) so runs are
reproducible and byte-identical across repeats.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .exactgeom import Direction, PointConfig, check_genericity, cross, vsub
from .homotopy import build_ainf, build_web_cdga, check_d_squared, \
    check_stasheff
from .infrared import _frame, _hull_vertex_convex_path, _is_convex_path, \
    _mediant, stokes_matrix, stokes_matrix_oracle, stokes_rays
from .linalg import block_of, det, identity
from .perv import MatrixDiagram, braid_mutate, monodromy_charpoly
from .secondary import face_factorization, lift_subdivision, \
    brute_force_triangulations, is_triangulation, regular_triangulations, \
    secondary_polytope

DEFAULT_SEED = 20260813


def air_seed() -> int:
    raw = os.environ.get("AIR_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_SEED


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        word = "PASS" if self.ok else "FAIL"
        return (f"{word} criterion {self.number:2d} ({self.name}): "
                f"{self.detail} [{self.seconds:.1f}s]")


# -- shared generators ---------------------------------------------------------------


def _random_generic_config(rng, n, lo=-10, hi=10, prefix="w"):
    while True:
        used, items = set(), []
        while len(items) < n:
            p = (rng.randint(lo, hi), rng.randint(lo, hi))
            if p in used:
                continue
            used.add(p)
            items.append((f"{prefix}{len(items) + 1}", p[0], p[1]))
        cfg = PointConfig.of(items)
        if check_genericity(cfg):
            return cfg


def _random_stokes_config(rng, n, lo=-10, hi=10):
    while True:
        cfg = _random_generic_config(rng, n, lo, hi)
        diffs = [vsub(cfg.point(b), cfg.point(a))
                 for a, b in itertools.combinations(cfg.labels, 2)]
        if all(cross(u, v) != 0
               for u, v in itertools.combinations(diffs, 2)):
            return cfg


def _random_zeta(rng, cfg, lo=-9, hi=9):
    while True:
        z = (rng.randint(lo, hi), rng.randint(lo, hi))
        if z != (0, 0) and check_genericity(cfg, zeta=z):
            return Direction.of(z[0], z[1])


def _random_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))
             for _ in range(cols)] for _ in range(rows)]


def _random_diagram(rng, cfg, max_dim=2, min_dim=0):
    dims = {l: rng.randint(min_dim, max_dim) for l in cfg.labels}
    mono = {}
    for l in cfg.labels:
        while True:
            m = _random_matrix(rng, dims[l], dims[l])
            if det(m) != 0:
                mono[l] = m
                break
    trans = {(i, j): _random_matrix(rng, dims[j], dims[i])
             for i in cfg.labels for j in cfg.labels if i != j}
    return MatrixDiagram(cfg, dims, mono, trans)


def _unipotent_in_order(C) -> bool:
    full = C.full_matrix()
    for a, i in enumerate(C.order):
        for b, j in enumerate(C.order):
            blk = block_of(full, C.order, C.dims, i, j)
            if a == b and blk != identity(C.dims[i]):
                return False
            if a > b and any(x != 0 for r in blk for x in r):
                return False
    return True


def _timed(fn: Callable[[], Tuple[bool, str]], number: int,
           name: str) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as e:  # a crash is a failure, not a verdict
        ok, detail = False, f"raised {type(e).__name__}: {e}"
    return CriterionResult(number, name, ok, detail,
                           time.perf_counter() - t0)


# -- criteria ------------------------------------------------------------------------


def criterion_1(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 1)
        checked = 0
        for _ in range(200):
            cfg = _random_stokes_config(rng, rng.randint(2, 6))
            md = _random_diagram(rng, cfg)
            for _ in range(5):
                zeta = _random_zeta(rng, cfg)
                a = stokes_matrix(md, zeta)
                b = stokes_matrix_oracle(md, zeta)
                if a != b:
                    return False, f"mismatch at {cfg.labels} zeta={zeta}"
                if not (_unipotent_in_order(a) and _unipotent_in_order(b)):
                    return False, f"shape violation at zeta={zeta}"
                checked += 1
        return True, f"200 instances, {checked} zeta samples, all equal"
    return _timed(run, 1, "oracle equivalence")


def criterion_2(seed: int) -> CriterionResult:
    # the shape assertion runs inside criterion 1 on every sample; this
    # re-states it on a fresh draw so the line item stands alone
    def run():
        rng = random.Random(seed + 2)
        for _ in range(40):
            cfg = _random_stokes_config(rng, rng.randint(2, 6))
            md = _random_diagram(rng, cfg)
            C = stokes_matrix(md, _random_zeta(rng, cfg))
            if not _unipotent_in_order(C):
                return False, f"not block unipotent: {cfg.labels}"
        return True, "block upper-triangular, identity diagonal, 40 draws"
    return _timed(run, 2, "Stokes shape")


def criterion_3(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 3)
        chambers = 0
        for _ in range(20):
            cfg = _random_stokes_config(rng, rng.randint(2, 5))
            md = _random_diagram(rng, cfg)
            rays = stokes_rays(cfg)
            for k in range(len(rays)):
                u, v = rays[k], rays[(k + 1) % len(rays)]
                z1 = _mediant(u, v)
                z2 = _mediant(u, z1)
                z3 = _mediant(z1, v)
                c1 = stokes_matrix(md, z1)
                for z in (z2, z3):
                    c = stokes_matrix(md, z)
                    if (c.order, c.dims, c.blocks) != \
                            (c1.order, c1.dims, c1.blocks):
                        return False, f"chamber jump near ray {u}"
                chambers += 1
        return True, f"constant on {chambers} chambers, 3 samples each"
    return _timed(run, 3, "chamber constancy")


def criterion_4(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 4)
        cfgs = [PointConfig.of([("w1", 0, 0), ("w2", 2, 1), ("w3", 1, -3)]),
                PointConfig.of([("w1", 0, 0), ("w2", 2, 1), ("w3", 1, 3)])]
        cfgs += [_random_stokes_config(rng, rng.randint(3, 6))
                 for _ in range(20)]
        compared = 0
        for cfg in cfgs:
            zeta = _random_zeta(rng, cfg)
            fr = _frame(cfg, zeta)  # genericity checked once per (cfg, zeta)
            for k in range(1, min(5, len(cfg.labels)) + 1):
                for seq in itertools.permutations(cfg.labels, k):
                    if _is_convex_path(cfg, fr, seq) != \
                            _hull_vertex_convex_path(cfg, zeta, fr, seq):
                        return False, f"disagree on {seq} zeta={zeta}"
                    compared += 1
        return True, f"{compared} subsequences, zero disagreements"
    return _timed(run, 4, "convexity predicate equivalence")


def _convex_ngon(n: int) -> PointConfig:
    # rational points in strictly convex position via the tangent half-angle
    # parametrization of the circle
    ts = [Fraction(k, n) for k in range(n)]
    items = []
    for k, t in enumerate(ts):
        den = 1 + t * t
        x = Fraction(1 - t * t, 1) / den
        y = 2 * t / den
        items.append((f"p{k + 1}", 4 * x, 4 * y))
    return PointConfig.of(items)


def criterion_5(seed: int) -> CriterionResult:
    def run():
        want = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132}
        for n, count in want.items():
            cfg = _convex_ngon(n)
            regular = regular_triangulations(cfg)
            brute = brute_force_triangulations(cfg)
            if len(regular) != count:
                return False, f"n={n}: {len(regular)} regular != {count}"
            if {tuple(sorted(t)) for t in regular} != \
                    {tuple(sorted(t)) for t in brute}:
                return False, f"n={n}: flip-BFS set differs from brute force"
            poly = secondary_polytope(cfg)
            if poly.dim != n - 3:
                return False, f"n={n}: affine dim {poly.dim} != {n - 3}"
            totals = {sum(g) for g in poly.gkz_vectors}
            if len(totals) != 1:
                return False, f"n={n}: GKZ coordinate sums differ"
        return True, "n-gons n=4..8: 2, 5, 14, 42, 132; dims and sums check"
    return _timed(run, 5, "secondary polytopes")


def criterion_6(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 6)
        done = 0
        while done < 10:
            cfg = _random_generic_config(rng, rng.randint(4, 6), lo=-6, hi=6)
            heights = {l: Fraction(rng.randint(0, 2)) for l in cfg.labels}
            cells = lift_subdivision(cfg, heights)
            if is_triangulation(cells) or len(cells) == 1:
                continue  # want a genuinely coarse proper subdivision
            fact = face_factorization(cfg, cells)
            product = 1
            for c in fact.factor_counts:
                product *= c
            if len(fact.refinements) != product or not fact.verified:
                return False, (f"count {len(fact.refinements)} != "
                               f"product {product}")
            done += 1
        return True, "10 coarse regular subdivisions factor on the nose"
    return _timed(run, 6, "face factorization")


def criterion_7(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 7)
        for _ in range(20):
            cfg = _random_generic_config(rng, rng.randint(2, 5), lo=-8, hi=8)
            report = check_d_squared(build_web_cdga(cfg))
            if not report.ok:
                return False, f"d^2 != 0 at {report.failing_generators}"
        return True, "d^2 = 0 on 20 random web algebras (n <= 5)"
    return _timed(run, 7, "web CDGA differential")


def criterion_8(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 8)
        for _ in range(20):
            cfg = _random_generic_config(rng, rng.randint(2, 5), lo=-8, hi=8)
            eta = _random_zeta(rng, cfg)
            alg = build_ainf(cfg, eta)
            report = check_stasheff(alg, max_arity=4)
            if not report.ok:
                return False, f"Stasheff failure: {report.failures[:3]}"
        return True, "Stasheff identities to arity 4 on 20 random algebras"
    return _timed(run, 8, "A-infinity structure")


def criterion_9(seed: int) -> CriterionResult:
    def run():
        rng = random.Random(seed + 9)
        for _ in range(200):
            cfg = _random_generic_config(rng, 3, lo=-8, hi=8)
            md = _random_diagram(rng, cfg)
            for k in (1, 2):
                inv = braid_mutate(braid_mutate(md, k), k, inverse=True)
                if not _diagram_equal(md, inv):
                    return False, f"sigma_{k} inverse failed"
                inv2 = braid_mutate(braid_mutate(md, k, inverse=True), k)
                if not _diagram_equal(md, inv2):
                    return False, f"sigma_{k} left inverse failed"
            lhs = braid_mutate(braid_mutate(braid_mutate(md, 1), 2), 1)
            rhs = braid_mutate(braid_mutate(braid_mutate(md, 2), 1), 2)
            if not _diagram_equal(lhs, rhs):
                return False, "braid relation failed"
            base = monodromy_charpoly(md)
            word = md
            for _ in range(4):
                word = braid_mutate(word, rng.choice([1, 2]),
                                    inverse=rng.random() < 0.5)
            if monodromy_charpoly(word) != base:
                return False, "characteristic polynomial changed"
        return True, "200 diagrams: inverses, braid relation, charpoly"
    return _timed(run, 9, "braid mutation suite")


def _diagram_equal(a: MatrixDiagram, b: MatrixDiagram) -> bool:
    if (a.order, a.phi_dims, a.monodromies) != \
            (b.order, b.phi_dims, b.monodromies):
        return False
    labels = a.config.labels
    return all(a.t(i, j) == b.t(i, j)
               for i in labels for j in labels if i != j)


def criterion_10(seed: int) -> CriterionResult:
    def run():
        import mpmath
        from .lefschetz import Superpotential, _cycle_lengths, \
            critical_data, matrix_diagram_from_W, total_monodromy_check
        W = Superpotential.of(["0", "-1", "0", "1/3"])
        data = critical_data(W)
        with mpmath.workdps(50):
            lo = abs(data.values_mp[0] + mpmath.mpf(2) / 3)
            hi = abs(data.values_mp[1] - mpmath.mpf(2) / 3)
            if not (lo < mpmath.mpf("1e-30") and hi < mpmath.mpf("1e-30")):
                return False, "critical values of x^3/3 - x miss -+2/3"
        md = matrix_diagram_from_W(W)
        if abs(md.t("w1", "w2")[0][0]) != 1:
            return False, f"|t12| = {md.t('w1', 'w2')}"
        rep = total_monodromy_check(W)
        if not rep.ok or sorted(rep.big_perm) != [0, 1, 2]:
            return False, "total monodromy of x^3/3 - x is not a 3-cycle"
        if _cycle_lengths(rep.big_perm) != [3]:
            return False, "total monodromy of x^3/3 - x is not a 3-cycle"
        rng = random.Random(seed + 10)
        done = 0
        while done < 20:
            W = _random_morse(rng)
            if W is None:
                continue
            try:
                md = matrix_diagram_from_W(W)
            except Exception:
                continue
            cfg = md.config
            diffs = [vsub(cfg.point(b), cfg.point(a))
                     for a, b in itertools.combinations(cfg.labels, 2)]
            if any(cross(u, v) == 0
                   for u, v in itertools.combinations(diffs, 2)):
                continue  # oracle needs non-parallel differences
            for l in cfg.labels:
                if det(md.monodromies[l]) == 0:
                    return False, "non-invertible monodromy"
            for i in cfg.labels:
                for j in cfg.labels:
                    if i != j:
                        v = md.t(i, j)[0][0]
                        if v.denominator != 1 or abs(v) > 1:
                            return False, f"transport {v} not in -1..1"
            zeta = _random_zeta(rng, cfg)
            if stokes_matrix(md, zeta) != stokes_matrix_oracle(md, zeta):
                return False, "emitted diagram fails oracle equality"
            rep = total_monodromy_check(W)
            if not rep.ok:
                return False, f"monodromy check failed for {W.to_obj()}"
            half = total_monodromy_check(W, max_step=0.125)
            md_half = matrix_diagram_from_W(W, max_step=0.125)
            if half.big_perm != rep.big_perm or \
                    not _diagram_equal(md, md_half):
                return False, "step halving changed a result"
            done += 1
        return True, "A2 exact; 20 random Morse W pass end-to-end"
    return _timed(run, 10, "Lefschetz end-to-end")


def _random_morse(rng):
    from .lefschetz import Superpotential
    deg = rng.randint(2, 5)
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
              for _ in range(deg)] + [Fraction(rng.choice([1, 2, -1]))]
    try:
        return Superpotential(tuple(coeffs))
    except ValueError:
        return None


def criterion_11(seed: int) -> CriterionResult:
    def run():
        from .cli import run_cli
        md = _fixture_diagram()
        scene = {"config": md.config.to_obj(),
                 "overlays": [{"kind": "hull"},
                              {"kind": "path", "vertices": ["w2", "w1"]}]}
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            mdp = os.path.join(tmp, "md.json")
            scp = os.path.join(tmp, "scene.json")
            with open(mdp, "w") as f:
                f.write(md.to_json())
            with open(scp, "w") as f:
                json.dump(scene, f)
            calls = [
                ["stokes", "--config", mdp, "--zeta", "0,1", "--oracle"],
                ["paths", "--config", mdp, "--zeta", "0,1",
                 "--from", "w2", "--to", "w1"],
                ["lefschetz", "--coeffs", '["0","-1","0","1/3"]'],
                ["render", "--scene", scp],
            ]
            outs = []
            for _ in range(2):
                got = []
                for argv in calls:
                    buf = io.BytesIO()
                    code = run_cli(argv, stdout=buf)
                    if code != 0:
                        return False, f"exit {code} from {argv[0]}"
                    got.append(buf.getvalue())
                outs.append(got)
            if outs[0] != outs[1]:
                return False, "consecutive runs differ"
        return True, "two identical runs, byte-identical JSON and SVG"
    return _timed(run, 11, "determinism")


def _fixture_diagram() -> MatrixDiagram:
    cfg = PointConfig.of([("w1", 0, 0), ("w2", 2, 1), ("w3", 1, -3)])
    dims = {l: 1 for l in cfg.labels}
    mono = {l: [[Fraction(-1)]] for l in cfg.labels}
    trans = {("w2", "w1"): [[Fraction(2)]], ("w3", "w1"): [[Fraction(5)]],
             ("w2", "w3"): [[Fraction(7)]]}
    return MatrixDiagram(cfg, dims, mono, trans)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]

BUDGETS = {1: 60.0, 5: 120.0, 10: 60.0}


def run_criterion(number: int, seed: Optional[int] = None) -> CriterionResult:
    seed = air_seed() if seed is None else seed
    result = CRITERIA[number - 1](seed)
    budget = BUDGETS.get(number)
    if result.ok and budget is not None and result.seconds > budget:
        result.ok = False
        result.detail += f"; exceeded {budget:.0f}s budget"
    return result


def run_all(seed: Optional[int] = None) -> List[CriterionResult]:
    return [run_criterion(k, seed) for k in range(1, len(CRITERIA) + 1)]
