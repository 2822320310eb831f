"""One-variable superpotentials: critical data, root tracking, exact output.

This is the only module that touches floating point.  Roots of W' and of
W - p come from the Aberth-Ehrlich simultaneous iteration on Python complex
numbers; roots of W' are then polished by high-precision Newton in mpmath,
imported on first use, until the residual drops below 1e-30; fibers
W(x) = p are tracked along polylines in steps that each restart Newton from
the previous fiber's roots (there is no predictor), halving until every root
converges within a third of the current root separation.  Everything
exported downstream is snapped to exact rationals or integers, with hard
failure when a snap is ambiguous, so the exact modules never see a float.

The vanishing class v_i of a critical value w_i is the difference
[p] - [q] of the two roots of the fiber over one basepoint p0 that collide
along the straight leg p0 -> w_i, the pair ordered by the angle at which
the roots approach the critical point.  Its pairs join all the roots, so
the classes span the reduced H_0 of that fiber, with the integer pairing
<[p]-[q], [r]-[s]> = d_pr + d_qs - d_ps - d_qr.  The rank-one transport
t_ij is a straight-segment datum, the soliton count along w_i w_j
(Cecotti and Vafa, CMP 158, 1993; Gaiotto, Moore and Witten,
arXiv:1506.04087).  It is read off the same basis: reflect v_i
(x -> x - (x.v_k) v_k) in each v_k whose w_k lies inside the triangle
(p0, m, w_i), m the midpoint of w_i w_j, in the order a ray from p0
sweeping from w_i to m meets them; do the same for v_j; then
t_ij = eps <u_i, u_j> and t_ji = -t_ij, with eps = +1 exactly when p0,
w_i, w_j turn anticlockwise.  On this data the Cecotti-Vafa monodromy
-S^-1 S^T of every Stokes matrix is the d-cycle's Coxeter element.  Every
local monodromy is -1 by the Picard-Lefschetz theorem: W is Morse and its
critical values are pairwise distinct, so a loop around one critical value
alone swaps the two roots that collide there and sends the vanishing class
to its negative.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactgeom import (DegenerateConfig, PointConfig, check_genericity,
                        orient, parse_rational)
from .perv import MatrixDiagram


class NotMorse(ValueError):
    pass


class CriticalValueCollision(ValueError):
    pass


class PathTooClose(ValueError):
    pass


class StepUnderflow(RuntimeError):
    pass


class SnapFailure(ValueError):
    pass


class CollinearCriticalValues(DegenerateConfig):
    pass


# -- polynomials over the rationals --------------------------------------------------


@dataclass(frozen=True)
class Superpotential:
    coefficients: Tuple[Fraction, ...]  # ascending degree

    def __post_init__(self):
        if len(self.coefficients) < 3:
            raise ValueError("degree must be at least 2")
        if self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @staticmethod
    def of(coeffs: Sequence) -> "Superpotential":
        return Superpotential(tuple(parse_rational(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: complex) -> complex:
        return _horner([complex(c) for c in self.coefficients], x)

    def to_obj(self) -> list:
        from .exactgeom import format_rational
        return [format_rational(c) for c in self.coefficients]


def _derivative(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


def _poly_gcd_degree(a: List[Fraction], b: List[Fraction]) -> int:
    """Degree of gcd(a, b) over the rationals, by the Euclidean algorithm."""
    a, b = [list(x) for x in (a, b)]
    while b and all(c == 0 for c in b):
        b = []
    while b:
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        if len(a) < len(b):
            a, b = b, a
            continue
        lead = b[-1]
        shift = len(a) - len(b)
        q = a[-1] / lead
        for i in range(len(b)):
            a[i + shift] -= q * b[i]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return max(len(a) - 1, 0)


def _horner(coeffs: Sequence, x):
    """The polynomial with these ascending coefficients at x, by Horner's
    rule; complex and mpmath numbers alike."""
    w = 0j
    for c in reversed(coeffs):
        w = w * x + c
    return w


def _complex_coeffs(W: Superpotential) -> Tuple[List[complex], List[complex]]:
    """The coefficients of W and of W' as complex numbers, ascending degree."""
    return ([complex(c) for c in W.coefficients],
            [complex(c) for c in _derivative(W.coefficients)])


_ABERTH_SWEEPS = 100   # sweeps before a root that has not settled fails
_ABERTH_STEP = 1e-12   # a root settles once its correction is this small, relatively
_ABERTH_NOISE = 1e-14  # ... or once |f(z)| is this small against sum |a_k| |z|^k


def _roots(desc: Sequence[complex]) -> Optional[List[complex]]:
    """All roots of the polynomial with these descending coefficients (the
    leading one nonzero), by the Aberth-Ehrlich iteration (Aberth, Math.
    Comp. 27, 1973; Bini, Numer. Algorithms 13, 1996); None when a root has
    not settled after _ABERTH_SWEEPS sweeps.

    Zero roots are split off exactly.  The others start on the circle of
    radius |a_0/a_n|^(1/n), the geometric mean of their moduli, turned by
    0.7 radians so that no start lies on the real axis.  Each root stops on
    its own after the step in which its correction falls below _ABERTH_STEP
    of its size, or f at it falls to the level of rounding noise."""
    asc = [complex(c) for c in reversed(desc)]
    zeros = 0
    while asc[zeros] == 0:
        zeros += 1
    asc = asc[zeros:]
    dasc = _derivative(asc)
    mags = [abs(c) for c in asc]
    n = len(asc) - 1
    radius = (mags[0] / mags[-1]) ** (1.0 / n) if n else 0.0
    zs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.7))
          for k in range(n)]
    live = list(range(n))
    for _ in range(_ABERTH_SWEEPS):
        for k in list(live):
            z = zs[k]
            f = _horner(asc, z)
            repulsion = sum(1 / (z - y) for j, y in enumerate(zs) if j != k)
            step = f / (_horner(dasc, z) - f * repulsion)
            zs[k] = z - step
            if abs(step) <= _ABERTH_STEP * abs(zs[k]) or \
                    abs(f) <= _ABERTH_NOISE * _horner(mags, abs(z)).real:
                live.remove(k)
        if not live:
            return [0j] * zeros + zs
    return None


# -- critical data -------------------------------------------------------------------


@dataclass
class FiberBasis:
    basepoint: complex
    roots: List[complex]
    sep: float  # certified separation radius; pairwise distances > 3*sep


@dataclass
class CriticalData:
    points: List[complex]       # roots of W', sorted by critical value
    values: List[complex]       # W at each, double precision
    values_mp: List            # the same at 1e-30 residual precision
    pairing: List[Tuple[int, int]]  # colliding root pair per value, in basis
    basis: FiberBasis           # fiber basis at the canonical basepoint


def _scale(ws: Sequence[complex]) -> float:
    return 1.0 + max((abs(w) for w in ws), default=0.0)


def _min_pairwise(xs: Sequence[complex]) -> float:
    return min((abs(a - b) for a, b in itertools.combinations(xs, 2)),
               default=math.inf)


def _newton_mp(cs: Sequence, ds: Sequence, seed: complex):
    """Polish a root of the mp polynomial cs, with derivative ds, to
    residual below 1e-30; call at 60 digits."""
    import mpmath
    z = mpmath.mpc(seed)
    for _ in range(200):
        f = _horner(cs, z)
        if abs(f) < mpmath.mpf("1e-32"):
            break
        d = _horner(ds, z)
        if d == 0:
            raise NotMorse("Newton stalled on a degenerate root")
        z = z - f / d
    if abs(_horner(cs, z)) >= mpmath.mpf("1e-30"):
        raise NotMorse("critical point refinement did not converge")
    return z


def _newton_sweep(wc: List[complex], dc: List[complex], p: complex,
                  xs: Sequence[complex], limit: float) -> Optional[List[complex]]:
    """Newton on W(x) = p from each of xs in turn; the converged roots, or
    None as soon as one root fails to converge or moves more than limit."""
    out = []
    for x0 in xs:
        x = x0
        for _ in range(60):
            f = _horner(wc, x) - p
            d = _horner(dc, x)
            if d == 0:
                return None
            step = f / d
            x -= step
            if abs(step) < 1e-14 * (1.0 + abs(x)):
                break
        else:
            return None
        if abs(x - x0) > limit:
            return None
        out.append(x)
    return out


def fiber_basis(W: Superpotential, p: complex) -> FiberBasis:
    """Roots of W(x) = p, polished and sorted, with separation radius."""
    wc, dc = _complex_coeffs(W)
    shifted = wc[::-1]
    shifted[-1] -= p
    raw = _roots(shifted)
    if raw is None:
        raise PathTooClose(f"fiber at {p}: roots did not converge")
    roots = _newton_sweep(wc, dc, p, raw, math.inf)
    if roots is None:
        raise PathTooClose(f"fiber at {p} did not refine")
    roots.sort(key=lambda z: (z.real, z.imag))
    mp = _min_pairwise(roots)
    if not mp > 1e-9 * _scale(roots):
        raise PathTooClose(f"fiber at {p} is nearly critical")
    return FiberBasis(complex(p), roots, mp / 4.0)


@functools.lru_cache(maxsize=64)
def _critical_core(coeffs: Tuple[Fraction, ...]):
    W = Superpotential(coeffs)
    dW = _derivative(W.coefficients)
    ddW = _derivative(dW)
    if _poly_gcd_degree(list(dW), list(ddW)) > 0:
        raise NotMorse("W' has a repeated root")
    raw = _roots([complex(c) for c in reversed(dW)])
    if raw is None:
        raise NotMorse("roots of W' did not converge")
    import mpmath
    # critical values round to this grid, relative to scale; it is 1e-40 at
    # 53 bits, whatever the working precision
    grid = mpmath.mpf("1e-40", prec=53)
    with mpmath.workdps(60):
        cs, dcs = ([mpmath.mpf(c.numerator) / c.denominator for c in p]
                   for p in (W.coefficients, dW))
        ddcs = _derivative(dcs)
        zs = [_newton_mp(dcs, ddcs, r) for r in raw]
        ws_mp = [_horner(cs, z) for z in zs]
        # What the seeds leave below the polish must not reach the labels:
        # round each value to a grid far finer than the polish, so that a
        # zero part is exactly zero and the parts of a conjugate pair are
        # exactly equal, then order the grid values exactly.
        q = grid * (1 + max(abs(w) for w in ws_mp))
        ws_mp = [mpmath.mpc(mpmath.nint(w.real / q) * q,
                            mpmath.nint(w.imag / q) * q) for w in ws_mp]
    order = sorted(range(len(zs)), key=lambda k: (ws_mp[k].real, ws_mp[k].imag))
    zs = [zs[k] for k in order]
    ws_mp = [ws_mp[k] for k in order]
    ws = [complex(float(w.real), float(w.imag)) for w in ws_mp]
    s = _scale(ws)
    for a, b in itertools.combinations(ws_mp, 2):
        if abs(a - b) < 1e-20 * s:
            raise CriticalValueCollision("two critical values coincide")
    return zs, ws, ws_mp


def _basepoint(ws: Sequence[complex]) -> complex:
    """A point well below the critical values from which every straight leg
    to a critical value clears all the others."""
    c = sum(ws) / len(ws)
    spread = max(abs(w - c) for w in ws)
    d = 2.0 * spread + 1.0 + 0.25 * _scale(ws)
    clearance = 1e-5 * _scale(ws)
    for k in range(64):
        p0 = c + d * cmath.exp(1j * (-math.pi / 2 + 0.37 * k))
        if all(_segment_distance(p0, wi, wj) > clearance
               for i, wi in enumerate(ws)
               for j, wj in enumerate(ws) if i != j):
            return p0
    raise PathTooClose("no clear basepoint direction found")


def critical_data(W: Superpotential, max_step: float = 0.25) -> CriticalData:
    """Critical points and values of W, plus the colliding fiber pair at
    each critical value, identified from a common basepoint below them.
    The pairs must join all the fiber roots (a spanning tree), as the
    vanishing classes of a distinguished basis do."""
    zs_mp, ws, ws_mp = _critical_core(W.coefficients)
    ws = list(ws)  # the core result is cached; do not hand out the originals
    zs = [complex(float(z.real), float(z.imag)) for z in zs_mp]
    p0 = _basepoint(ws)
    basis = fiber_basis(W, p0)
    pairing = []
    for i, w in enumerate(ws):
        gap = min((abs(v - w) for k, v in enumerate(ws) if k != i),
                  default=math.inf)
        pairing.append(_vanishing_pair(W, basis, w, zs[i], gap, max_step))
    if not _is_spanning_tree(pairing, len(basis.roots)):
        raise PathTooClose(f"vanishing pairs {pairing} do not join all "
                           "the fiber roots")
    return CriticalData(zs, ws, list(ws_mp), pairing, basis)


def _is_spanning_tree(pairs: Sequence[Tuple[int, int]], d: int) -> bool:
    """Whether the pairs, as edges on the vertices 0..d-1, form a tree
    through all of them: d - 1 edges, none closing a cycle."""
    comp = list(range(d))
    for p, q in pairs:
        if comp[p] == comp[q]:
            return False
        old = comp[q]
        comp = [comp[p] if c == old else c for c in comp]
    return len(pairs) == d - 1


def _vanishing_pair(W: Superpotential, basis: FiberBasis, w: complex,
                    z: complex, gap: float,
                    max_step: float = 0.25) -> Tuple[int, int]:
    """Track the fiber from the basis basepoint straight toward the critical
    value w, stopping short, at most a tenth of the gap to the nearest
    other critical value; return the colliding pair as basis indices,
    ordered by approach angle at the critical point z."""
    d = w - basis.basepoint
    if d == 0:
        raise PathTooClose("basepoint sits on a critical value")
    delta = min(1e-4 * _scale([w, basis.basepoint]), 0.1 * gap)
    for _ in range(4):
        stop = w - delta * d / abs(d)
        xs = track_fiber(W, [basis.basepoint, stop], basis, max_step).roots
        pairs = sorted(itertools.combinations(range(len(xs)), 2),
                       key=lambda pq: abs(xs[pq[0]] - xs[pq[1]]))
        (p, q) = pairs[0]
        best = abs(xs[p] - xs[q])
        second = abs(xs[pairs[1][0]] - xs[pairs[1][1]]) if len(pairs) > 1 \
            else math.inf
        if best < 0.25 * second:
            theta = cmath.phase(xs[p] - z)  # in (-pi, pi]
            if not 0 <= theta < math.pi:
                p, q = q, p
            return p, q
        delta /= 16.0
    raise PathTooClose(f"could not isolate the vanishing pair at {w}")


# -- root tracking -------------------------------------------------------------------


@dataclass
class TrackResult:
    roots: List[complex]          # end fiber, ordered by starting index
    perm: Optional[List[int]]     # for closed paths: end index k sits at
    #                               basis position perm[k]
    steps: int = 0                # accepted steps
    halvings: int = 0             # rejected steps, each halving the next


def _as_complex_path(path: Sequence) -> List[complex]:
    out = []
    for p in path:
        if isinstance(p, complex):
            out.append(p)
        elif isinstance(p, (int, float)):
            out.append(complex(p))
        else:
            out.append(complex(float(p[0]), float(p[1])))
    return out


def _check_max_step(max_step: float) -> None:
    if not 0 < max_step <= 1:
        raise ValueError(f"max_step must lie in (0, 1], not {max_step}")


def track_fiber(W: Superpotential, path: Sequence, basis: FiberBasis,
                max_step: float = 0.25) -> TrackResult:
    """Continue all fiber roots along the polyline.  Each step, at most
    max_step of a segment, restarts Newton from the previous roots and is
    accepted when every root converges within a third of the current
    separation and the new roots stay apart; otherwise the step halves.
    For closed paths the end-to-start matching is returned."""
    _check_max_step(max_step)
    pts = _as_complex_path(path)
    if len(pts) < 1:
        raise ValueError("empty path")
    if abs(pts[0] - basis.basepoint) > basis.sep:
        raise ValueError("path must start at the basis basepoint")
    _, ws, _ = _critical_core(W.coefficients)
    s = _scale(ws + pts)
    margin = 1e-9 * s
    for a, b in zip(pts, pts[1:]):
        for w in ws:
            if _segment_distance(a, b, w) < margin:
                raise PathTooClose(f"path passes within {margin} of {w}")
    wc, dc = _complex_coeffs(W)
    xs = list(basis.roots)
    sep = _min_pairwise(xs)
    steps = halvings = 0
    for a, b in zip(pts, pts[1:]):
        if a == b:
            continue
        t, h = 0.0, max_step
        while t < 1.0:
            step = min(h, 1.0 - t)
            target = a + (t + step) * (b - a)
            nxt = _newton_sweep(wc, dc, target, xs, sep / 3.0)
            if nxt is not None:
                sep_nxt = _min_pairwise(nxt)
                if sep_nxt >= margin:
                    xs, sep = nxt, sep_nxt
                    t += step
                    h = min(h * 2.0, max_step)
                    steps += 1
                    continue
            h /= 2.0
            halvings += 1
            if h < 1e-9:
                raise StepUnderflow(f"step collapsed near {target}")
    perm = None
    if pts[-1] == pts[0]:
        perm = []
        for x in xs:
            dists = [abs(x - r) for r in basis.roots]
            j = min(range(len(dists)), key=dists.__getitem__)
            if dists[j] > basis.sep:
                raise StepUnderflow("end fiber does not match the basis")
            perm.append(j)
        if sorted(perm) != list(range(len(xs))):
            raise StepUnderflow("end matching is not a permutation")
    return TrackResult(xs, perm, steps, halvings)


def _segment_distance(a: complex, b: complex, w: complex) -> float:
    if a == b:
        return abs(w - a)
    t = ((w - a) / (b - a)).real
    t = min(max(t, 0.0), 1.0)
    return abs(w - (a + t * (b - a)))


def _circle(center: complex, through: complex, segments: int = 24,
            clockwise: bool = False) -> List[complex]:
    r = through - center
    sgn = -1.0 if clockwise else 1.0
    pts = [center + r * cmath.exp(sgn * 2j * math.pi * k / segments)
           for k in range(segments)]
    return pts + [through]  # close the loop exactly


def loop_permutation(W: Superpotential, center: complex, basepoint: complex,
                     max_step: float = 0.25) -> List[int]:
    """Permutation of the fiber at basepoint from one anticlockwise circle
    around center through the basepoint."""
    basis = fiber_basis(W, basepoint)
    res = track_fiber(W, _circle(center, basepoint), basis, max_step)
    return res.perm


# -- exact output --------------------------------------------------------------------


def _snap_value(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10 ** 6)


def _swept_class(classes: Sequence[List[int]],
                 pts: Sequence[Tuple[Fraction, Fraction]], p0, m, i: int,
                 take_edge: bool) -> List[int]:
    """The class at p0 that vanishes along p0 -> m -> w_i, from the class
    v_i that vanishes along the straight leg p0 -> w_i.

    Rotating the first segment about p0 from the leg to p0 -> m sweeps the
    triangle (p0, m, w_i).  Each critical value w_k it passes adds the loop
    along the leg p0 -> w_k, whose monodromy is the reflection
    x -> x - (x.v_k) v_k, applied in the order the sweep meets the values.
    A value on the open segment p0 m is swept only when take_edge holds, so
    that it counts for exactly one end of w_i w_j."""
    s = orient(p0, pts[i], m)
    inside = [k for k in range(len(pts))
              if orient(p0, pts[i], pts[k]) == s
              and orient(pts[i], m, pts[k]) == s
              and orient(m, p0, pts[k]) in ((s, 0) if take_edge else (s,))]
    inside.sort(key=functools.cmp_to_key(
        lambda k, l: -s * orient(p0, pts[k], pts[l])))
    v = classes[i]
    for k in inside:
        r = classes[k]
        dot = sum(x * y for x, y in zip(v, r))
        v = [x - dot * y for x, y in zip(v, r)]
    return v


def _segment_transport(classes: Sequence[List[int]],
                       pts: Sequence[Tuple[Fraction, Fraction]], p0,
                       i: int, j: int) -> int:
    """t_ij for i < j: the pairing of the classes that vanish along
    p0 -> m -> w_i and p0 -> m -> w_j, m the midpoint of w_i w_j, signed
    by the turn p0, w_i, w_j.  A value on the open segment p0 m counts for
    w_i: the path to m then passes it on the side of w_j."""
    m = ((pts[i][0] + pts[j][0]) / 2, (pts[i][1] + pts[j][1]) / 2)
    ui = _swept_class(classes, pts, p0, m, i, True)
    uj = _swept_class(classes, pts, p0, m, j, False)
    return orient(p0, pts[i], pts[j]) * sum(x * y for x, y in zip(ui, uj))


def matrix_diagram_from_W(W: Superpotential,
                          max_step: float = 0.25) -> MatrixDiagram:
    """Rank-one matrix diagram on the snapped critical values: transports
    are integer intersection numbers of vanishing classes transported to
    the straight segments between critical values, monodromies are -1.

    Every transport comes from the one fiber basis at the basepoint p0 of
    `critical_data`: v_i = e_p - e_q for the pair (p, q) that collides
    along the straight leg p0 -> w_i.  For a pair i < j with midpoint m,
    u_i is v_i reflected, in sweep order, in the v_k of every value inside
    the triangle (p0, m, w_i) (`_swept_class`), and likewise u_j; then
    t_ij = eps (u_i . u_j) and t_ji = -t_ij, with eps = +1 exactly when
    p0, w_i, w_j turn anticlockwise.  Every orientation is decided exactly
    on the snapped values and the snapped p0; the legs clear every other
    value by 1e-5 times the scale, more than any snap moves a point.

    The monodromies are proved, not tracked.  `_critical_core` enforces two
    exact facts: W' and W'' are coprime, so every critical point is Morse,
    and the critical values are pairwise distinct (at 60 digits, and again
    after snapping below), so exactly one critical point lies over each.  A
    loop that winds once around w_i alone then acts on the fiber by the
    transposition of the two roots that collide over w_i, and sends the
    vanishing class to its negative (Picard-Lefschetz; Arnold, Gusein-Zade
    and Varchenko, Singularities of Differentiable Maps II, 1988): mu = -1.
    `total_monodromy_check` still tracks every local loop.

    The result carries a `snap_error` attribute, the largest distance moved
    by any coordinate when the critical values were snapped to rationals
    with denominator at most 10^6 (zero when exactly representable)."""
    _check_max_step(max_step)
    data = critical_data(W, max_step)
    ws = data.values
    n = len(ws)
    labels = [f"w{i + 1}" for i in range(n)]
    snapped = [(_snap_value(w.real), _snap_value(w.imag)) for w in ws]
    snap_error = max(max(abs(float(sx) - w.real), abs(float(sy) - w.imag))
                     for (sx, sy), w in zip(snapped, ws))
    if len(set(snapped)) != n:
        raise CriticalValueCollision("critical values collide after snapping")
    config = PointConfig.of([(labels[i], snapped[i][0], snapped[i][1])
                             for i in range(n)])
    rep = check_genericity(config)
    if not rep.ok:
        raise CollinearCriticalValues(f"critical values: {rep.violations}")
    pts = [config.point(l) for l in labels]
    b = data.basis.basepoint
    p0 = (_snap_value(b.real), _snap_value(b.imag))
    classes = []
    for p, q in data.pairing:
        v = [0] * len(data.basis.roots)
        v[p], v[q] = 1, -1
        classes.append(v)
    transports: Dict[Tuple[str, str], List[List[Fraction]]] = {}
    for i, j in itertools.combinations(range(n), 2):
        raw = _segment_transport(classes, pts, p0, i, j)
        if raw not in (-1, 0, 1):
            raise SnapFailure(f"pairing {raw} for {labels[i]},{labels[j]} "
                              "is outside the allowed range")
        transports[(labels[i], labels[j])] = [[Fraction(raw)]]
        transports[(labels[j], labels[i])] = [[Fraction(-raw)]]
    mono = {l: [[Fraction(-1)]] for l in labels}
    dims = {l: 1 for l in labels}
    md = MatrixDiagram(config, dims, mono, transports)
    md.snap_error = snap_error
    return md


# -- global consistency --------------------------------------------------------------


def _compose(first: List[int], then: List[int]) -> List[int]:
    return [then[k] for k in first]


def _cycle_lengths(perm: List[int]) -> List[int]:
    seen = [False] * len(perm)
    out = []
    for k in range(len(perm)):
        if seen[k]:
            continue
        c, at = 0, k
        while not seen[at]:
            seen[at] = True
            at = perm[at]
            c += 1
        out.append(c)
    return sorted(out)


@dataclass
class MonodromyReport:
    degree: int
    big_perm: List[int]
    is_full_cycle: bool
    spider_order: List[int]       # critical value indices, leg order
    local_perms: List[List[int]]  # same order as spider_order
    composition_matches: bool

    @property
    def ok(self) -> bool:
        return self.is_full_cycle and self.composition_matches


def total_monodromy_check(W: Superpotential,
                          max_step: float = 0.25) -> MonodromyReport:
    """Track the fiber around a circle enclosing every critical value and
    compare with the composition of the elementary loops, legs ordered
    anticlockwise as seen from the basepoint below the values."""
    data = critical_data(W)
    ws = data.values
    basis = data.basis
    p0 = basis.basepoint
    big = track_fiber(W, _circle(sum(ws) / len(ws), p0), basis, max_step).perm
    spider = sorted(range(len(ws)),
                    key=lambda i: cmath.phase(ws[i] - p0))
    locals_ = []
    comp = list(range(len(basis.roots)))
    for i in spider:
        delta = min(0.45 * min((abs(ws[j] - ws[i])
                                for j in range(len(ws)) if j != i),
                               default=2.0), 0.5 * abs(ws[i] - p0))
        near = ws[i] + delta * (p0 - ws[i]) / abs(p0 - ws[i])
        leg = [p0, near]
        loop = leg + _circle(ws[i], near)[1:] + [p0]
        perm = track_fiber(W, loop, basis, max_step).perm
        locals_.append(perm)
        comp = _compose(comp, perm)
    return MonodromyReport(
        degree=W.degree,
        big_perm=big,
        is_full_cycle=_cycle_lengths(big) == [W.degree],
        spider_order=spider,
        local_perms=locals_,
        composition_matches=comp == big,
    )
