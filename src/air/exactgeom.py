"""Exact rational plane geometry: points, directions, labelled configurations.

Everything here is exact; there are no floats and no epsilons.  All
downstream combinatorics (hulls, triangulations, path convexity, Stokes data)
reduce to the sign predicates in this module, so the predicates are kept
deliberately small and auditable.

The grid convention: a PointConfig clears its denominators once, when it is
built.  `scale` is the lcm of its coordinate denominators and
`grid[l] = coords[l] * scale` is a pair of Python ints.  A positive scale
keeps every sign and the lexicographic order, so hulls, turn tests and
point-in-polygon tests read grid pairs, and areas on the grid are integers
scale**2 times the rational ones.  Values that are emitted stay Fractions:
a grid quantity of degree k is divided by scale**k where it leaves.  `orient`
takes grid pairs (one integer cross product) or rational points (the sign of
an integer determinant of homogeneous coordinates), never floats.

The genericity convention: a PointConfig finds its collinear triples at most
once, on first use (`collinear_triples`), and keeps them like its grid.
check_genericity reads them and scans only the pairs a direction adds, so
every check of one configuration (a diagram's, each zeta frame's, each
enumeration's) shares one O(n**3) scan.  A configuration made by subconfig
or with_point is a new one and finds its own.

Conventions used throughout the package:

- the plane is oriented the usual way (x right, y up); `orient(p, q, r) = +1`
  means r lies strictly to the left of the directed line p -> q;
- `rho` is rotation by +90 degrees: (dx, dy) -> (-dy, dx);
- convex hulls are returned counterclockwise, starting from the
  lexicographically smallest point (smallest x, then smallest y).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, NamedTuple


class DegenerateConfig(ValueError):
    """A configuration violates the genericity an operation requires."""


class GeometryError(ValueError):
    pass


# Decimal exponents beyond this are refused: Fraction would build 10**exp,
# at a cost that grows with the exponent, and a float never exceeds 324.
MAX_EXPONENT = 4000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def parse_rational(text) -> Fraction:
    """Parse "7", "-3/4", "0.25", "1e-3" (or an int) into a Fraction.

    The forms format_rational writes ("n", "-n", "n/d" in ASCII digits) are
    read with int; every other string goes to Fraction, so both paths accept
    the same strings.  Booleans and exponents beyond MAX_EXPONENT are refused
    with GeometryError."""
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
            try:
                if not slash:
                    return Fraction(int(num))
                if den.isdigit() and den.strip("0"):
                    return Fraction(int(num), int(den))
            except ValueError:  # more digits than int reads: Fraction refuses
                pass            # them too, below, with GeometryError
    elif isinstance(text, Fraction):
        return text
    elif isinstance(text, bool):
        raise GeometryError(f"not a rational number: {text!r}")
    elif isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    m = _EXPONENT.search(s)
    if m is not None:
        try:
            huge = abs(int(m.group(1))) > MAX_EXPONENT
        except ValueError:  # too many digits for int, and so for Fraction
            huge = False
        if huge:
            raise GeometryError(f"exponent beyond {MAX_EXPONENT}: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Point(NamedTuple):
    x: Fraction
    y: Fraction


Vec = Tuple[Fraction, Fraction]


def pt(x, y) -> Point:
    return Point(parse_rational(x), parse_rational(y))


def vsub(p: Point, q: Point) -> Vec:
    # vector from q to p
    return (p[0] - q[0], p[1] - q[1])


def cross(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def sign(q) -> int:
    return (q > 0) - (q < 0)


def orient(p: Point, q: Point, r: Point) -> int:
    """Orientation of the triple: +1 counterclockwise, -1 clockwise, 0 collinear.

    On grid pairs of ints this is the sign of one cross product.  Otherwise
    it is the sign of the integer determinant with rows (x*d, y*d, d), the
    homogeneous coordinates of p, q, r with d = den(x)*den(y) > 0.  Scaling
    a row by a positive weight keeps the sign, so this is the sign of
    cross(q - p, r - p) for any rationals.  A float coordinate has no
    numerator and raises AttributeError instead of rounding.
    """
    (x1, y1), (x2, y2), (x3, y3) = p, q, r
    if int is type(x1) is type(y1) is type(x2) is type(y2) is type(x3) is type(y3):
        det = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    else:
        rows = []
        for x, y in (p, q, r):
            a, b = x.denominator, y.denominator
            rows.append((x.numerator * b, y.numerator * a, a * b))
        (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = rows
        det = (w1 * (x2 * y3 - x3 * y2) + w2 * (x3 * y1 - x1 * y3)
               + w3 * (x1 * y2 - x2 * y1))
    return sign(det)


def rho(zeta: Vec) -> Vec:
    """Rotate a direction by +90 degrees: (dx, dy) -> (-dy, dx)."""
    dx, dy = zeta
    if dx == 0 and dy == 0:
        raise GeometryError("zero vector has no direction")
    return (-dy, dx)


@dataclass(frozen=True)
class Direction:
    """A nonzero direction, compared up to positive rescaling.

    Stored as the primitive integer vector on the same ray, so two Directions
    are equal iff they are positive multiples of each other.
    """

    dx: int
    dy: int

    @staticmethod
    def of(dx, dy) -> "Direction":
        fx, fy = parse_rational(dx), parse_rational(dy)
        if fx == 0 and fy == 0:
            raise GeometryError("zero vector has no direction")
        m = fx.denominator * fy.denominator
        ix, iy = int(fx * m), int(fy * m)
        g = gcd(abs(ix), abs(iy))
        return Direction(ix // g, iy // g)

    @staticmethod
    def between(p: Point, q: Point) -> "Direction":
        return Direction.of(q[0] - p[0], q[1] - p[1])

    def vec(self) -> Vec:
        return (Fraction(self.dx), Fraction(self.dy))

    def opposite(self) -> "Direction":
        return Direction(-self.dx, -self.dy)

    def __str__(self) -> str:
        return f"{self.dx},{self.dy}"


def angle_halfplane(v: Vec) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi), measured from the +x axis
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def angle_less(u: Vec, v: Vec) -> bool:
    """Strict counterclockwise angular order from the +x axis; parallel ties break equal."""
    hu, hv = angle_halfplane(u), angle_halfplane(v)
    if hu != hv:
        return hu < hv
    return cross(u, v) > 0


def angle_sorted(vectors: Iterable) -> list:
    """Sort items by the angle of key(item); items must be (key_vec, payload) pairs."""
    import functools

    def cmp(a, b):
        if angle_less(a[0], b[0]):
            return -1
        if angle_less(b[0], a[0]):
            return 1
        return 0

    return sorted(vectors, key=functools.cmp_to_key(cmp))


@dataclass
class PointConfig:
    """An ordered, labelled configuration of distinct rational points.

    `scale` (the lcm of the coordinate denominators) and `grid` (label ->
    coordinates times scale, as ints) are derived when the configuration is
    built, and `collinear_triples` on first use; see the module docstring.
    """

    labels: List[str]
    coords: Dict[str, Point] = field(default_factory=dict)
    scale: int = field(init=False, compare=False, repr=False)
    grid: Dict[str, Tuple[int, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise GeometryError("duplicate labels in configuration")
        missing = [l for l in self.labels if l not in self.coords]
        if missing:
            raise GeometryError(f"labels without coordinates: {missing}")
        pts = [self.coords[l] for l in self.labels]
        if len(set(pts)) != len(pts):
            raise GeometryError("coincident points in configuration")
        scale = 1
        for l, (x, y) in zip(self.labels, pts):
            try:
                scale = lcm(scale, x.denominator, y.denominator)
            except (AttributeError, TypeError) as exc:
                raise GeometryError(f"point {l!r} has a coordinate that is not "
                                    f"rational: {(x, y)!r}") from exc
        self.scale = scale
        self.grid = {l: (x.numerator * (scale // x.denominator),
                         y.numerator * (scale // y.denominator))
                     for l, (x, y) in zip(self.labels, pts)}

    @staticmethod
    def of(items: Sequence[Tuple[str, object, object]]) -> "PointConfig":
        labels = [it[0] for it in items]
        coords = {it[0]: pt(it[1], it[2]) for it in items}
        return PointConfig(labels, coords)

    @cached_property
    def collinear_triples(self) -> Tuple[Tuple[str, str, str], ...]:
        """Every collinear triple of labels, in label order."""
        g = self.grid
        return tuple((a, b, c) for a, b, c in combinations(self.labels, 3)
                     if orient(g[a], g[b], g[c]) == 0)

    def point(self, label: str) -> Point:
        return self.coords[label]

    def __len__(self) -> int:
        return len(self.labels)

    def subconfig(self, labels: Iterable[str]) -> "PointConfig":
        keep = set(labels)
        unknown = keep - set(self.labels)
        if unknown:
            raise GeometryError(f"unknown labels: {sorted(unknown)}")
        kept = [l for l in self.labels if l in keep]
        return PointConfig(kept, {l: self.coords[l] for l in kept})

    def with_point(self, label: str, p: Point, front: bool = False) -> "PointConfig":
        labels = [label] + self.labels if front else self.labels + [label]
        coords = dict(self.coords)
        coords[label] = p
        return PointConfig(labels, coords)

    # -- JSON round trip ---------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "points": [
                {"label": l, "x": format_rational(self.coords[l][0]),
                 "y": format_rational(self.coords[l][1])}
                for l in self.labels
            ]
        }

    @staticmethod
    def from_obj(obj: dict) -> "PointConfig":
        try:
            points = obj["points"]
            if not isinstance(points, list):
                raise TypeError(f"points must be a list, not "
                                f"{type(points).__name__}")
            items = [(e["label"], e["x"], e["y"]) for e in points]
        except (KeyError, TypeError) as exc:
            raise GeometryError(f"malformed point configuration: {exc}") from exc
        bad = [l for l, _, _ in items if not isinstance(l, str)]
        if bad:
            raise GeometryError(f"labels must be strings, got {bad[0]!r}")
        return PointConfig.of(items)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "PointConfig":
        return PointConfig.from_obj(json.loads(text))


def convex_hull(config: PointConfig) -> List[str]:
    """Labels of the convex hull, counterclockwise from the lexicographically
    smallest point.  A fully collinear configuration yields its two extreme
    points; a single point yields itself."""
    return hull_labels(config, config.labels)


def hull_labels(config: PointConfig, labels: Iterable[str]) -> List[str]:
    """convex_hull of the points of config named by labels, read on the grid
    without building a sub-configuration."""
    g = config.grid
    items = sorted((g[l], l) for l in labels)
    if len(items) <= 2:
        return [l for (_, l) in items]
    if len(items) == 3:  # one turn test puts a triangle in ccw order
        (a, la), (b, lb), (c, lc) = items
        o = orient(a, b, c)
        return [la, lb, lc] if o > 0 else [la, lc, lb] if o < 0 else [la, lc]

    def build(seq):
        out: List[Tuple[Tuple[int, int], str]] = []
        for item in seq:
            while len(out) >= 2 and orient(out[-2][0], out[-1][0], item[0]) <= 0:
                out.pop()
            out.append(item)
        return out

    lower = build(items)
    upper = build(reversed(items))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear: keep the two extremes
        hull = [items[0], items[-1]]
    return [l for (_, l) in hull]


def point_in_convex_polygon(p: Point, poly: Sequence[Point]) -> int:
    """2 if strictly inside the ccw polygon, 1 on the boundary, 0 outside."""
    n = len(poly)
    if n == 1:
        return 1 if p == poly[0] else 0
    if n == 2:
        return 1 if on_segment(p, poly[0], poly[1]) else 0
    best = 2
    for i in range(n):
        o = orient(poly[i], poly[(i + 1) % n], p)
        if o < 0:
            return 0
        if o == 0:
            best = 1
    return best


def on_segment(p: Point, a: Point, b: Point, strict: bool = False) -> bool:
    """Whether p lies on segment [a, b] (strictly inside if strict)."""
    if orient(a, b, p) != 0:
        return False
    lo, hi = min(a, b), max(a, b)
    if strict:
        return lo < p < hi
    return lo <= p <= hi


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether open segments (a,b) and (c,d) share an interior point.

    Shared endpoints do not count; collinear overlaps do.
    """
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    # collinear pieces: overlap of more than a point counts, touching does not
    if o1 == o2 == 0:
        lo1, hi1 = min(a, b), max(a, b)
        lo2, hi2 = min(c, d), max(c, d)
        return max(lo1, lo2) < min(hi1, hi2)
    # an endpoint strictly inside the other segment
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if on_segment(p, u, v, strict=True):
            return True
    return False


def polygon_area2(poly: Sequence[Point]) -> Fraction:
    """Twice the signed area of a polygon (positive if counterclockwise): an
    int on grid pairs, a Fraction on rational points."""
    s = 0
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        s += p[0] * q[1] - q[0] * p[1]
    return s


def normvol(poly: Sequence[Point]) -> Fraction:
    """Normalized volume of a convex polygon: twice its area (1 per unit triangle)."""
    return abs(polygon_area2(poly))


@dataclass
class GenericityReport:
    ok: bool
    violations: List[tuple]

    def __bool__(self) -> bool:
        return self.ok


def check_genericity(config: PointConfig, zeta: Optional[Vec] = None) -> GenericityReport:
    """Check the standing genericity assumptions.

    Always: no three points collinear (the configuration's own
    collinear_triples).  With a direction zeta: the projections
    <w, rho(zeta)> are pairwise distinct, equivalently no difference w_j - w_i
    is parallel to zeta.
    """
    labels = config.labels
    g = config.grid
    n = len(labels)
    viol: List[tuple] = [("collinear",) + t for t in config.collinear_triples]
    if zeta is not None:
        r = Direction.of(*rho(zeta))  # rho(zeta) as a primitive int vector
        for i in range(n):
            for j in range(i + 1, n):
                a, b = labels[i], labels[j]
                d = vsub(g[b], g[a])
                if d[0] * r.dx + d[1] * r.dy == 0:
                    # difference parallel to zeta <=> projection tie
                    viol.append(("zeta_parallel_difference", a, b))
    return GenericityReport(ok=not viol, violations=viol)
