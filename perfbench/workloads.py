"""The benchmark workloads: seeded generators, timed calls, checks.

Each workload has three parts.

- ``generate(seed, index)`` makes one instance as a mapping from file name
  to JSON bytes.  It uses only the standard library and its own exact
  predicates, never the program, so the inputs do not depend on the code
  under test.  Instance ``index`` depends only on ``(seed, index)``.
- ``run(inst)`` calls the program through its public entry points: the
  in-process command line ``air.cli.run_cli`` where a subcommand exists,
  the library otherwise.  Only those calls are timed.
- ``verify(inst, res, checks)`` runs untimed, independent checks and
  returns the problems found.  ``checks`` counts every check executed.

Calls go through module attributes (``air.cli.run_cli``) looked up at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Point = Tuple[Fraction, Fraction]


# -- exact helpers, independent of the program --------------------------------------


def q(x) -> str:
    """A rational as the program's JSON writes it: "3" or "-3/4"."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cross(o: Point, a: Point, b: Point):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def no_three_collinear(pts: Sequence[Point]) -> bool:
    return len(set(pts)) == len(pts) and \
        all(cross(a, b, c) != 0 for a, b, c in combinations(pts, 3))


def _direction_key(dx: Fraction, dy: Fraction) -> Tuple[int, int]:
    # the primitive integer vector on the line through (dx, dy), sign-fixed
    den = dx.denominator * dy.denominator
    ix, iy = int(dx * den), int(dy * den)
    g = gcd(ix, iy)
    ix, iy = ix // g, iy // g
    return (ix, iy) if ix > 0 or (ix == 0 and iy > 0) else (-ix, -iy)


def no_parallel_differences(pts: Sequence[Point]) -> bool:
    keys = [_direction_key(Fraction(b[0] - a[0]), Fraction(b[1] - a[1]))
            for a, b in combinations(pts, 2)]
    return len(set(keys)) == len(keys)


def hull_size(pts: Sequence[Point]) -> int:
    """Number of vertices of the convex hull (strict turns only)."""
    ps = sorted(set(pts))
    if len(ps) < 3:
        return len(ps)

    def chain(seq):
        out: List[Point] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    return len(chain(ps)[:-1] + chain(ps[::-1])[:-1])


def generic_direction(rng: random.Random, pts: Sequence[Point],
                      lo: int = -9, hi: int = 9) -> Tuple[int, int]:
    """An integer direction parallel to no difference of points."""
    while True:
        z = (rng.randint(lo, hi), rng.randint(lo, hi))
        if z != (0, 0) and all(
                (b[0] - a[0]) * z[1] - (b[1] - a[1]) * z[0] != 0
                for a, b in combinations(pts, 2)):
            return z


def points_obj(pts: Sequence[Point]) -> List[dict]:
    return [{"label": f"w{k + 1}", "x": q(p[0]), "y": q(p[1])}
            for k, p in enumerate(pts)]


def read_points(obj: dict) -> Dict[str, Point]:
    return {e["label"]: (Fraction(e["x"]), Fraction(e["y"]))
            for e in obj["points"]}


def dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(f"{workload}/{seed}/{index}")


def random_points(rng: random.Random, n: int, box: int) -> List[Point]:
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randint(-box, box)), Fraction(rng.randint(-box, box))))
    return sorted(pts)


def random_generic_points(rng: random.Random, n: int, box: int,
                          convex: bool,
                          parallel_free: bool = False) -> List[Point]:
    """Random lattice points, resampled until no three are collinear, in
    (or not in) convex position and, when asked, free of parallel
    differences."""
    while True:
        pts = random_points(rng, n, box)
        if (hull_size(pts) == n) != convex:
            continue
        if not no_three_collinear(pts):
            continue
        if parallel_free and not no_parallel_differences(pts):
            continue
        return pts


# -- running the command line in process --------------------------------------------


@dataclass
class Result:
    seconds: float = 0.0                  # timed program calls only
    stdout: bytes = b""                   # what the digest covers
    error: Optional[str] = None           # a raise or a nonzero exit
    data: Dict[str, Any] = field(default_factory=dict)
    cli_bytes: int = 0                    # stdout bytes of run_cli calls


def cli(res: Result, argv: List[str]) -> Optional[bytes]:
    """Time one in-process ``air`` command; None (and res.error) on failure."""
    import air.cli
    out, err = io.BytesIO(), io.BytesIO()
    t0 = time.perf_counter()
    code = air.cli.run_cli(argv, stdout=out, stderr=err)
    res.seconds += time.perf_counter() - t0
    data = out.getvalue()
    res.stdout += data
    res.cli_bytes += len(data)
    if code != 0:
        res.error = (f"air {argv[0]} exited {code}: "
                     f"{err.getvalue().decode(errors='replace').strip()[:300]}")
        return None
    return data


def timed(res: Result, fn: Callable, *args):
    """Time one library call into the program."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        res.seconds += time.perf_counter() - t0


def read(inst_dir: str, name: str) -> bytes:
    with open(os.path.join(inst_dir, name), "rb") as f:
        return f.read()


# -- web: web CDGA and A-infinity algebra on 5-point configurations ------------------

# faces of the secondary polytope of a convex k-gon: little Schroeder numbers
SCHROEDER = {3: 1, 4: 3, 5: 11, 6: 45}


def convex_generator_count(n: int) -> int:
    return comb(n, 2) + sum(comb(n, k) * SCHROEDER[k] for k in range(3, n + 1))


class Web:
    name = "web"
    n_points = 5
    box = 20
    nominal_s = 0.3

    def generate(self, seed: int, index: int) -> Dict[str, bytes]:
        rng = instance_rng(self.name, seed, index)
        convex = index % 2 == 0
        pts = random_generic_points(rng, self.n_points, self.box, convex=convex)
        eta = generic_direction(rng, pts)
        return {"web.json": dump({"points": points_obj(pts),
                                  "eta": f"{eta[0]},{eta[1]}",
                                  "convex": convex})}

    def run(self, inst_dir: str) -> Result:
        import air.exactgeom
        import air.homotopy
        obj = json.loads(read(inst_dir, "web.json"))
        cfg = air.exactgeom.PointConfig.from_obj(obj)
        eta = air.exactgeom.Direction.of(*obj["eta"].split(","))
        res = Result()
        h = air.homotopy
        cdga = timed(res, h.build_web_cdga, cfg)
        dsq = timed(res, h.check_d_squared, cdga)
        alg = timed(res, h.build_ainf, cfg, eta)
        stash = timed(res, h.check_stasheff, alg)
        res.stdout = (json.dumps({"ainf": alg.to_obj(), "cdga": cdga.to_obj()},
                                 sort_keys=True) + "\n").encode()
        res.data = {"cdga": cdga, "dsq": dsq, "alg": alg, "stasheff": stash}
        return res

    def verify(self, inst_dir: str, res: Result, checks) -> List[str]:
        obj = json.loads(read(inst_dir, "web.json"))
        pts = read_points(obj)
        cdga, alg = res.data["cdga"], res.data["alg"]
        problems = []

        checks["web.d_squared"] += 1
        if not res.data["dsq"].ok:
            problems.append("check_d_squared reports failures")
        degree = {g.gid: g.degree for g in cdga.generators}
        for gid, elem in cdga.differential.items():
            if d_of(d_of(elem, cdga.differential, degree), cdga.differential, degree):
                problems.append(f"d^2 != 0 on generator {gid}")
                break

        checks["web.stasheff"] += 1
        if not res.data["stasheff"].ok:
            problems.append("check_stasheff reports failures")
        if not stasheff_holds(alg.m2, alg.degrees, len(alg.basis)):
            problems.append("m2 is not associative up to the Koszul sign")

        checks["web.chains"] += 1
        eta = tuple(int(t) for t in obj["eta"].split(","))
        if sorted(alg.basis) != sorted(right_turn_chains(pts, eta)):
            problems.append("A-infinity basis differs from the convex chains")

        if obj["convex"]:
            checks["web.generator_count"] += 1
            want = convex_generator_count(len(pts))
            if len(cdga.generators) != want:
                problems.append(f"{len(cdga.generators)} generators != {want}")
        return problems


def _mono_mul(a: Tuple[int, ...], b: Tuple[int, ...],
              degree: Dict[int, int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Graded-commutative product of two monomials: sort the concatenation,
    one sign flip per swap of two odd generators; None if an odd one repeats."""
    seq = list(a + b)
    sign = 1
    for i in range(1, len(seq)):  # insertion sort, counting odd-odd swaps
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            if degree[seq[j - 1]] % 2 and degree[seq[j]] % 2:
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    for x, y in zip(seq, seq[1:]):
        if x == y and degree[x] % 2:
            return None
    return tuple(seq), sign


def d_of(elem: Dict[Tuple[int, ...], Fraction], differential,
         degree: Dict[int, int]) -> Dict[Tuple[int, ...], Fraction]:
    """The differential extended to monomials by the graded Leibniz rule."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for mono, coeff in elem.items():
        sign = 1
        for i, g in enumerate(mono):
            for dmono, dc in differential[g].items():
                left = _mono_mul(mono[:i], dmono, degree)
                if left is None:
                    continue
                full = _mono_mul(left[0], mono[i + 1:], degree)
                if full is None:
                    continue
                key = full[0]
                out[key] = out.get(key, Fraction(0)) + \
                    sign * left[1] * full[1] * coeff * dc
            if degree[g] % 2:
                sign = -sign
    return {k: v for k, v in out.items() if v != 0}


def stasheff_holds(m2: Dict[Tuple[int, int], Tuple[int, Fraction]],
                   degrees: List[int], n: int) -> bool:
    """m2(m2(x,y),z) + (-1)^|x| m2(x,m2(y,z)) = 0 on every basis triple."""
    def prod(x, y):
        hit = m2.get((x, y))
        return {hit[0]: hit[1]} if hit else {}

    for x in range(n):
        sx = -1 if degrees[x] % 2 else 1
        for y in range(n):
            for z in range(n):
                acc: Dict[int, Fraction] = {}
                for k, c in prod(x, y).items():
                    for k2, c2 in prod(k, z).items():
                        acc[k2] = acc.get(k2, 0) + c * c2
                for k, c in prod(y, z).items():
                    for k2, c2 in prod(x, k).items():
                        acc[k2] = acc.get(k2, 0) + sx * c * c2
                if any(acc.values()):
                    return False
    return True


def right_turn_chains(pts: Dict[str, Point], eta: Tuple[int, int]
                      ) -> List[Tuple[str, ...]]:
    """Chains of two or more points, increasing along rho(eta) and turning
    right at every interior point."""
    r = (-eta[1], eta[0])
    order = sorted(pts, key=lambda l: pts[l][0] * r[0] + pts[l][1] * r[1])
    out: List[Tuple[str, ...]] = []

    def grow(chain):
        if len(chain) >= 2:
            out.append(tuple(chain))
        for nxt in order[order.index(chain[-1]) + 1:]:
            if len(chain) >= 2 and cross(pts[chain[-2]], pts[chain[-1]], pts[nxt]) >= 0:
                continue
            grow(chain + [nxt])
    for start in order:
        grow([start])
    return out


# -- stokes-paths: `air stokes` on 11-point matrix diagrams ------------------------


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))


def random_matrix(rng: random.Random, rows: int, cols: int) -> List[List[Fraction]]:
    return [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]


def det(m: List[List[Fraction]]) -> Fraction:
    """Determinant of a 1x1 or 2x2 block, the only sizes generated."""
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def convex_parallel_free_points(rng: random.Random, n: int,
                                spread: int) -> List[Point]:
    """Points on the parabola y = x^2 with pairwise distinct sums of
    abscissas: convex position, and two chords are parallel only if their
    abscissa sums agree."""
    while True:  # greedy, restarted when it gets stuck
        xs: List[int] = []
        sums = set()
        for _ in range(100 * n):
            x = rng.randint(-spread, spread)
            new = {x + y for y in xs}
            if x not in xs and not new & sums:
                xs.append(x)
                sums |= new
                if len(xs) == n:
                    return sorted((Fraction(x), Fraction(x * x)) for x in xs)


class StokesPaths:
    name = "stokes-paths"
    n_points = 11
    box = 100
    nominal_s = 0.55

    def generate(self, seed: int, index: int) -> Dict[str, bytes]:
        rng = instance_rng(self.name, seed, index)
        n = self.n_points
        convex = index % 2 == 0
        if convex:
            pts = convex_parallel_free_points(rng, n, 300)
        else:
            pts = random_generic_points(rng, n, self.box, convex=False,
                                        parallel_free=True)
        labels = [f"w{k + 1}" for k in range(n)]
        dims = {l: rng.randint(1, 2) for l in labels}
        mono = {}
        for l in labels:
            while True:
                m = random_matrix(rng, dims[l], dims[l])
                if det(m) != 0:
                    mono[l] = m
                    break
        trans = {f"{i}->{j}": random_matrix(rng, dims[j], dims[i])
                 for i in labels for j in labels if i != j}
        zeta = generic_direction(rng, pts)
        md = {"points": points_obj(pts), "phi_dims": dims,
              "monodromies": {l: [[q(x) for x in row] for row in m]
                              for l, m in mono.items()},
              "transports": {k: [[q(x) for x in row] for row in m]
                             for k, m in trans.items()}}
        return {"md.json": dump(md),
                "args.json": dump({"zeta": f"{zeta[0]},{zeta[1]}",
                                   "convex": convex})}

    def run(self, inst_dir: str) -> Result:
        args = json.loads(read(inst_dir, "args.json"))
        res = Result()
        cli(res, ["stokes", "--config", os.path.join(inst_dir, "md.json"),
                  f"--zeta={args['zeta']}"])
        return res

    def verify(self, inst_dir: str, res: Result, checks) -> List[str]:
        import air.exactgeom
        import air.infrared
        import air.perv
        args = json.loads(read(inst_dir, "args.json"))
        md_obj = json.loads(read(inst_dir, "md.json"))
        out = json.loads(res.stdout)
        problems = []
        checks["stokes.oracle"] += 1
        got = air.infrared.StokesMatrix.from_obj(out["stokes"])
        md = air.perv.MatrixDiagram.from_obj(md_obj)
        want = air.infrared.stokes_matrix_oracle(
            md, air.exactgeom.Direction.of(*args["zeta"].split(",")))
        if got != want:
            problems.append("Stokes matrix differs from the factorization oracle")
        fil = out["filtration"]
        if fil["order"] != got.order or \
                fil["dims"] != [md_obj["phi_dims"][l] for l in got.order]:
            problems.append("filtration does not match the Stokes matrix order")
        return problems


# -- superpotential: `air lefschetz`, `air wallcross`, braid words ---------------------

# W has degree 5, so W' has four roots: (real roots, conjugate pairs).
# Real critical values lie on the real axis, so at most two real roots
# avoid a collinear triple; a conjugate pair gives a vertical difference.
# Degrees 6 and 7 are left out: `air lefschetz` raises StepUnderflow on
# about one W in 60 there (one in 60 at degree 6, two in 60 at degree 7
# on the draws of seeds 100-105), and none in 800 at degree 5.
SHAPES = [(2, 1), (0, 2)]


def poly_mul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eval_gauss(coeffs: Sequence[Fraction], re: Fraction, im: Fraction
               ) -> Tuple[Fraction, Fraction]:
    """W(re + i im) exactly, coefficients ascending."""
    wr, wi = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        wr, wi = wr * re - wi * im + c, wr * im + wi * re
    return wr, wi


def _segment_clearance(p: Point, a: Point, b: Point) -> float:
    ax, ay, bx, by, px, py = (float(v) for v in (*a, *b, *p))
    dx, dy = bx - ax, by - ay
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)))
    return ((px - ax - t * dx) ** 2 + (py - ay - t * dy) ** 2) ** 0.5


class Superpotential:
    name = "superpotential"
    word_length = 6
    nominal_s = 0.15

    def generate(self, seed: int, index: int) -> Dict[str, bytes]:
        rng = instance_rng(self.name, seed, index)
        while True:
            real, pairs = rng.choice(SHAPES)
            a = rng.sample(range(-3, 4), real)
            pq = set()
            while len(pq) < pairs:
                pq.add((rng.randint(-3, 3), rng.randint(1, 3)))
            dw = [Fraction(1)]
            for x in a:
                dw = poly_mul(dw, [Fraction(-x), Fraction(1)])
            for p, qq in sorted(pq):
                dw = poly_mul(dw, [Fraction(p * p + qq * qq), Fraction(-2 * p), Fraction(1)])
            w = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(dw)]
            crit = [eval_gauss(w, Fraction(x), Fraction(0)) for x in a]
            for p, qq in sorted(pq):
                crit += [eval_gauss(w, Fraction(p), Fraction(s * qq)) for s in (1, -1)]
            if self._well_separated(crit):
                break
        n = len(crit)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(self.word_length)]
        return {"w.json": dump({"coeffs": [q(c) for c in w], "word": word}),
                "expect.json": dump({"critical_values": sorted(
                    [q(x), q(y)] for x, y in crit)})}

    @staticmethod
    def _well_separated(crit: List[Point]) -> bool:
        """No three values collinear, and no value near another or near a
        segment between two others, so fiber tracking stays well posed."""
        if not no_three_collinear(crit):
            return False
        scale = 1.0 + max(abs(float(x)) + abs(float(y)) for x, y in crit)
        for p in crit:
            for a, b in combinations([c for c in crit if c != p], 2):
                if _segment_clearance(p, a, b) < 0.02 * scale:
                    return False
        return all(abs(complex(float(a[0] - b[0]), float(a[1] - b[1])))
                   > 0.05 * scale for a, b in combinations(crit, 2))

    def run(self, inst_dir: str) -> Result:
        import air.exactgeom
        import air.infrared
        import air.perv
        spec = json.loads(read(inst_dir, "w.json"))
        res = Result()
        data = cli(res, ["lefschetz", "--coeffs", json.dumps(spec["coeffs"])])
        if data is None:
            return res
        md_obj = json.loads(data)
        md_path = os.path.join(inst_dir, "md.json")
        with open(md_path, "wb") as f:
            f.write(data)
        rays = timed(res, air.infrared.stokes_rays,
                     air.exactgeom.PointConfig.from_obj(md_obj))
        reports = []
        for ray in rays:
            out = cli(res, ["wallcross", "--config", md_path, f"--ray={ray}"])
            if out is None:
                return res
            reports.append(json.loads(out))
        md = timed(res, air.perv.MatrixDiagram.from_obj, md_obj)
        word = [(abs(k), k < 0) for k in spec["word"]]
        before = timed(res, air.perv.monodromy_charpoly, md)
        after = timed(res, air.perv.monodromy_charpoly,
                      timed(res, air.perv.braid_word, md, word))
        res.stdout += (json.dumps([q(c) for c in before]) + "\n" +
                       json.dumps([q(c) for c in after]) + "\n").encode()
        res.data = {"md": md_obj, "reports": reports,
                    "charpolys": (before, after)}
        return res

    def verify(self, inst_dir: str, res: Result, checks) -> List[str]:
        expect = json.loads(read(inst_dir, "expect.json"))
        md = res.data["md"]
        pts = read_points(md)
        problems = []

        checks["superpotential.critical_values"] += 1
        got = sorted((p[0], p[1]) for p in pts.values())
        want = sorted((Fraction(x), Fraction(y)) for x, y in expect["critical_values"])
        if got != want:
            problems.append("emitted points differ from the exact critical values")

        checks["superpotential.chamber_oracle"] += 1
        if any(d != 1 for d in md["phi_dims"].values()):
            problems.append("a Lefschetz block is not rank one")
            return problems
        t = {tuple(k.split("->")): Fraction(m[0][0])
             for k, m in md["transports"].items()}
        if not res.data["reports"]:
            problems.append("no wall-crossing reports")
        for rep in res.data["reports"]:
            for side in ("before", "after"):
                if not chamber_matches(pts, t, rep[side]):
                    problems.append(f"chamber {side} ray {rep['ray']} "
                                    "differs from the factor oracle")

        checks["superpotential.charpoly"] += 1
        before, after = res.data["charpolys"]
        if before != after:
            problems.append("braid word changed the monodromy charpoly")
        return problems[:3]


def chamber_matches(pts: Dict[str, Point], t: Dict[Tuple[str, str], Fraction],
                    stokes_obj: dict) -> bool:
    """Compare a rank-one Stokes matrix with the ordered product of the
    elementary factors Id + t_ij E_ij, pairs by increasing angle of
    w_j - w_i from zeta.  Parallel differences are allowed: with no three
    points collinear they join disjoint pairs, whose factors commute."""
    zx, zy = (int(v) for v in stokes_obj["zeta"].split(","))
    r = (-zy, zx)
    order = sorted(pts, key=lambda l: pts[l][0] * r[0] + pts[l][1] * r[1])
    if order != stokes_obj["order"]:
        return False
    pairs = [(i, j) for a, i in enumerate(order) for j in order[a + 1:]]

    def diff(p):
        return (pts[p[1]][0] - pts[p[0]][0], pts[p[1]][1] - pts[p[0]][1])

    def by_angle(p1, p2):
        (ax, ay), (bx, by) = diff(p1), diff(p2)
        c = ax * by - ay * bx
        return -1 if c > 0 else (1 if c < 0 else 0)
    pairs.sort(key=functools.cmp_to_key(by_angle))
    idx = {l: k for k, l in enumerate(order)}
    n = len(order)
    prod = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    for i, j in pairs:  # P <- P (Id + t_ij E_ji): column i gains t_ij P[:, j]
        tij = t.get((i, j), Fraction(0))
        if tij:
            for row in prod:
                row[idx[i]] += tij * row[idx[j]]
    blocks = {tuple(k.split("->")): Fraction(m[0][0])
              for k, m in stokes_obj["blocks"].items()}
    return all(prod[idx[j]][idx[i]] == blocks.get((i, j), Fraction(0))
               for i, j in pairs)


WORKLOADS = {w.name: w for w in (Web(), StokesPaths(), Superpotential())}
