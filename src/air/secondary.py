"""Regular subdivisions and secondary polytopes of planar point configurations.

A subdivision is stored as a tuple of cells; each cell is a tuple of labels in
counterclockwise order starting from the lexicographically smallest point, and
the cells are sorted.  Cells are vertex sets of strictly convex polygons: a
configuration point lying inside a cell is simply not listed.  Where the
distinction matters (faces of the secondary polytope) a cell additionally
carries its set of *marked* points: the points lying on the cell's lifted
plane, vertices included.

Regularity is decided exactly from local rows (De Loera, Rambau and Santos,
Triangulations, 2010, ch. 2 and 5).  Heights h give each cell the plane
through its lifted first three vertices; the rows ask for
- every mark of a cell on the cell's plane (equalities),
- a strict fold across every interior edge: a vertex of the cell on the far
  side lies strictly above this cell's plane,
- every point that is no cell's vertex, and not marked by the cell that
  contains it, strictly above that cell's plane.
A plain subdivision allows such a point on the plane too, and the strict
rows decide it alike: a point that no cell uses appears only in its own
rows, each time with a negative coefficient, so raising its height turns
heights that meet them non-strictly into heights that meet them strictly.
These rows suffice.  The lift is then continuous and piecewise linear over
the hull, and convex across every edge; such a function on a convex domain
is convex, and with strict folds every plane lies strictly below the lift
off its own cell.  So each point lies strictly above the plane of every
cell that does not contain it, which is the global cells x points system.
The rows go to the exact simplex solver (lp.py), and the witness heights it
returns reproduce the subdivision on lift.  The lift itself
(lift_marked_subdivision) reads its lower faces from the same plane row as
the regularity rows.

Geometry runs on the configuration's integer grid (exactgeom): hulls,
point-in-cell tests and turn tests read grid pairs, cell areas are integers
scale**2 times the rational ones, and plane rows have integer coefficients
scale**2 times the rational ones.  A row is only ever compared with 0 or
handed to the solver, which reduces every row to its primitive integer
multiple, so the decisions and the witness heights are those of the rational
rows.  GKZ vectors are divided by scale**2 where they are returned.

The standing assumption throughout is a generic configuration (no three points
collinear, see exactgeom.check_genericity); validation is complete under that
assumption and best-effort otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .exactgeom import (
    DegenerateConfig,
    PointConfig,
    convex_hull,
    hull_labels,
    normvol,
    orient,
    parse_rational,
    point_in_convex_polygon,
    segments_cross,
)
from .linalg import rank as mat_rank
from .lp import LinearSystem

Cell = Tuple[str, ...]
Cells = Tuple[Cell, ...]


class SubdivisionError(ValueError):
    pass


class InvalidSubdivision(SubdivisionError):
    pass


class NotFlippable(SubdivisionError):
    pass


class NotRegular(SubdivisionError):
    pass


def normalize_cell(config: PointConfig, labels: Iterable[str]) -> Cell:
    """Canonical form of a cell: ccw from the lex-smallest point.

    Raises InvalidSubdivision unless the labelled points are the vertex set of
    a strictly convex polygon.
    """
    labs = list(dict.fromkeys(labels))
    if len(labs) < 3:
        raise InvalidSubdivision(f"cell {labs} has fewer than 3 points")
    unknown = set(labs).difference(config.grid)
    if unknown:
        raise InvalidSubdivision(f"unknown labels: {sorted(unknown)}")
    hull = hull_labels(config, labs)
    if len(hull) != len(labs):
        raise InvalidSubdivision(f"cell {sorted(labs)} is not strictly convex")
    return tuple(hull)


def validate_subdivision(config: PointConfig, cells: Iterable[Iterable[str]]) -> Cells:
    """Canonicalize and check that the cells tile the convex hull."""
    raw = list(cells)
    if not raw:
        raise InvalidSubdivision("no cells")
    hull = convex_hull(config)
    if len(hull) < 3:
        raise InvalidSubdivision("configuration is degenerate")
    norm = sorted({normalize_cell(config, c) for c in raw})
    if len(norm) != len(raw):
        raise InvalidSubdivision("duplicate cells")
    directed: Dict[Tuple[str, str], Cell] = {}
    for cell in norm:
        for i in range(len(cell)):
            e = (cell[i], cell[(i + 1) % len(cell)])
            if e in directed:
                raise InvalidSubdivision(f"directed edge {e} used twice")
            directed[e] = cell
    hull_edges = {(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
    for e in directed:
        if (e[1], e[0]) not in directed and e not in hull_edges:
            raise InvalidSubdivision(f"interior edge {e} appears only once")
    for e in hull_edges:
        if e not in directed:
            raise InvalidSubdivision(f"hull edge {e} not covered")
    g = config.grid
    total = sum(normvol([g[l] for l in cell]) for cell in norm)
    if total != normvol([g[l] for l in hull]):
        raise InvalidSubdivision("cells do not tile the hull")
    return tuple(norm)


def is_triangulation(cells: Cells) -> bool:
    return all(len(c) == 3 for c in cells)


@dataclass(frozen=True)
class MarkedSubdivision:
    """A subdivision together with, per cell, the points on its lifted plane."""

    cells: Cells
    marks: Tuple[Tuple[str, ...], ...]  # sorted labels, aligned with cells

    def mark_sets(self) -> List[FrozenSet[str]]:
        return [frozenset(m) for m in self.marks]


# -- lifting ------------------------------------------------------------------


def _plane_row(grid: Dict[str, Tuple[int, int]], index: Dict[str, int],
               cell: Cell, s: str) -> List[int]:
    """The row of point s against the plane through the lifted ccw base
    (a, b, c) = cell[:3]: with D = cross(b - a, c - a) > 0, its dot product
    with the heights is D * (plane(s) - h_s), which is 0 when s is a base
    vertex.  Each coefficient of a base vertex is a cross product of the
    other two seen from s, so no 3x3 system is solved.  On grid pairs the
    row is integer, scale**2 times the rational row: the same signs, and the
    same row once the solver divides by its leading coefficient."""
    (ax, ay), (bx, by), (cx, cy) = (grid[l] for l in cell[:3])
    sx, sy = grid[s]
    r = [0] * len(index)
    r[index[cell[0]]] = (bx - sx) * (cy - sy) - (by - sy) * (cx - sx)
    r[index[cell[1]]] = (cx - sx) * (ay - sy) - (cy - sy) * (ax - sx)
    r[index[cell[2]]] = (ax - sx) * (by - sy) - (ay - sy) * (bx - sx)
    r[index[s]] -= (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return r


def _lower_faces(config: PointConfig, heights: Dict[str, Fraction]) -> List[FrozenSet[str]]:
    labels = config.labels
    g = config.grid
    index = {l: i for i, l in enumerate(labels)}
    h = [parse_rational(heights[l]) for l in labels]
    faces = set()
    for a, b, c in combinations(labels, 3):
        o = orient(g[a], g[b], g[c])
        if o == 0:  # collinear base triple
            continue
        base = (a, b, c) if o > 0 else (a, c, b)
        vals = [sum(x * y for x, y in zip(_plane_row(g, index, base, s), h)
                    if x)
                for s in labels]
        if any(v > 0 for v in vals):  # the plane passes above a lifted point
            continue
        faces.add(frozenset(l for l, v in zip(labels, vals) if v == 0))
    return sorted(faces, key=sorted)


def lift_marked_subdivision(config: PointConfig, heights: Dict[str, Fraction]) -> MarkedSubdivision:
    """The marked subdivision induced by the lower hull of the lifted points."""
    missing = [l for l in config.labels if l not in heights]
    if missing:
        raise SubdivisionError(f"heights missing for labels: {missing}")
    items = []
    for face in _lower_faces(config, heights):
        # a lower face holds a non-collinear triple, so its hull is a cell
        cell = tuple(hull_labels(config, face))
        items.append((cell, tuple(sorted(face))))
    items.sort()
    cells = tuple(c for c, _ in items)
    validate_subdivision(config, cells)
    return MarkedSubdivision(cells, tuple(m for _, m in items))


def lift_subdivision(config: PointConfig, heights: Dict[str, Fraction]) -> Cells:
    """The subdivision induced by the lower hull of the lifted points."""
    return lift_marked_subdivision(config, heights).cells


# -- regularity ---------------------------------------------------------------


@dataclass
class RegularityWitness:
    regular: bool
    heights: Optional[Dict[str, Fraction]]

    def __bool__(self) -> bool:
        return self.regular


def _regular_heights(config: PointConfig, cells: Cells,
                     marks: Sequence[FrozenSet[str]]) -> Optional[Dict[str, Fraction]]:
    """Witness heights for the canonical cells with their mark sets, from the
    local rows of the module docstring, or None if there are none.

    Every row is a _plane_row: s lies on or above the cell's plane when it
    is 0 or negative.  A point on the shared edge of two cells (possible
    only off the generic case) gets a row from each cell that does not mark
    it.
    """
    index = {l: i for i, l in enumerate(config.labels)}
    g = config.grid
    sys = LinearSystem(len(index))

    owner: Dict[Tuple[str, str], Cell] = {}
    for cell, mk in zip(cells, marks):
        for s in sorted(mk.difference(cell[:3]), key=index.__getitem__):
            sys.add_eq(_plane_row(g, index, cell, s), 0)
        for i in range(len(cell)):
            owner[(cell[i], cell[(i + 1) % len(cell)])] = cell
    for (a, b), cell in owner.items():
        other = owner.get((b, a))
        if other is not None and a < b:
            # cells are strictly convex, so no other vertex lies on line ab
            v = next(l for l in other if l != a and l != b)
            sys.add_lt(_plane_row(g, index, cell, v), 0)
    used = {l for cell in cells for l in cell}
    for s in config.labels:
        if s in used:
            continue
        for cell, mk in zip(cells, marks):
            where = point_in_convex_polygon(g[s], [g[l] for l in cell])
            if where and s not in mk:
                sys.add_lt(_plane_row(g, index, cell, s), 0)
            if where == 2:
                break
    x = sys.feasible_point()
    if x is None:
        return None
    return {l: x[index[l]] for l in config.labels}


def is_regular(config: PointConfig, cells: Iterable[Iterable[str]]) -> RegularityWitness:
    """Decide regularity of a subdivision; the witness heights lift back to it."""
    norm = validate_subdivision(config, cells)
    heights = _regular_heights(config, norm, [frozenset(c) for c in norm])
    return RegularityWitness(heights is not None, heights)


def marked_is_regular(config: PointConfig, msub: MarkedSubdivision) -> RegularityWitness:
    """Regularity of a marked subdivision: marked points must land exactly on
    their cell's plane, every other point strictly above."""
    norm = validate_subdivision(config, msub.cells)
    if norm != msub.cells:
        raise InvalidSubdivision("marked subdivision is not in canonical form")
    marks = msub.mark_sets()
    if len(marks) != len(norm):
        raise InvalidSubdivision(f"{len(marks)} mark sets for {len(norm)} cells")
    for cell, mk in zip(norm, marks):
        unknown = mk.difference(config.coords)
        if unknown:
            raise InvalidSubdivision(f"marks of cell {cell} name unknown labels "
                                     f"{sorted(unknown)}")
        if not mk.issuperset(cell):
            raise InvalidSubdivision(f"marks of cell {cell} omit a vertex")
        poly = [config.grid[l] for l in cell]
        for s in mk.difference(cell):
            if point_in_convex_polygon(config.grid[s], poly) == 0:
                raise InvalidSubdivision(f"marked point {s} lies outside cell {cell}")
    heights = _regular_heights(config, norm, marks)
    return RegularityWitness(heights is not None, heights)


# -- flips --------------------------------------------------------------------


def _flip_core(config: PointConfig, tri: Cells, edge: Tuple[str, str]) -> Cells:
    a, b = edge
    inc = [c for c in tri if a in c and b in c]
    if len(inc) != 2:
        raise NotFlippable(f"edge ({a},{b}) is not an interior edge of the triangulation")
    c1 = next(l for l in inc[0] if l not in (a, b))
    c2 = next(l for l in inc[1] if l not in (a, b))
    g = config.grid
    if not segments_cross(g[a], g[b], g[c1], g[c2]):
        raise NotFlippable(f"quadrilateral around edge ({a},{b}) is not convex")
    rest = [c for c in tri if c not in inc]
    rest.append(normalize_cell(config, (a, c1, c2)))
    rest.append(normalize_cell(config, (b, c1, c2)))
    return tuple(sorted(rest))


def flip(config: PointConfig, cells: Iterable[Iterable[str]], edge: Sequence[str]) -> Cells:
    """Replace the diagonal `edge` of its surrounding quadrilateral by the other one."""
    tri = validate_subdivision(config, cells)
    if not is_triangulation(tri):
        raise NotFlippable("flips operate on triangulations")
    if len(edge) != 2:
        raise NotFlippable(f"an edge has two labels, got {list(edge)}")
    a, b = edge
    for l in (a, b):
        if l not in config.coords:
            raise NotFlippable(f"unknown label {l!r}")
    return _flip_core(config, tri, (a, b))


def _neighbors(config: PointConfig, hull: FrozenSet[str],
               tri: Cells) -> List[Cells]:
    """All triangulations one bistellar move away (diagonal, insert, remove);
    hull is the set of hull vertices of the configuration."""
    out = set()
    seen_edges = set()
    for cell in tri:
        for i in range(3):
            e = tuple(sorted((cell[i], cell[(i + 1) % 3])))
            if e in seen_edges:
                continue
            seen_edges.add(e)
            try:
                out.add(_flip_core(config, tri, e))
            except NotFlippable:
                pass
    used = {l for c in tri for l in c}
    g = config.grid
    for p in config.labels:
        if p in used:
            continue
        for cell in tri:
            if point_in_convex_polygon(g[p], [g[l] for l in cell]) == 2:
                rest = [c for c in tri if c != cell]
                for i in range(3):
                    rest.append(normalize_cell(config, (p, cell[i], cell[(i + 1) % 3])))
                out.add(tuple(sorted(rest)))
                break
    incident: Dict[str, List[Cell]] = {}
    for c in tri:
        for l in c:
            incident.setdefault(l, []).append(c)
    for p in used - hull:
        cs = incident[p]
        if len(cs) != 3:
            continue
        ring = {l for c in cs for l in c} - {p}
        if len(ring) != 3:
            continue
        rest = [c for c in tri if c not in cs]
        rest.append(normalize_cell(config, ring))
        out.add(tuple(sorted(rest)))
    return sorted(out)


def _seed_triangulation(config: PointConfig) -> Cells:
    """The placing triangulation (De Loera, Rambau and Santos, Triangulations,
    2010, section 4.3): insert the points in lexicographic order and join
    each new point to the hull edges it sees.  It is regular and uses every
    point; the configuration must be generic."""
    items = sorted((config.grid[l], l) for l in config.labels)
    if len(items) < 3:
        raise SubdivisionError("configuration is degenerate")
    (a, la), (b, lb), (c, lc) = items[:3]
    hull = [la, lb, lc] if orient(a, b, c) > 0 else [la, lc, lb]  # ccw
    cells = [normalize_cell(config, hull)]
    for p, lp in items[3:]:
        # p is lexicographically last so far, hence outside the hull, and the
        # edges it sees form one chain; rotate the hull to start the chain
        n = len(hull)
        sees = [orient(config.grid[hull[i]], config.grid[hull[(i + 1) % n]],
                       p) < 0 for i in range(n)]
        k = next(i for i in range(n) if sees[i] and not sees[i - 1])
        hull, sees = hull[k:] + hull[:k], sees[k:] + sees[:k]
        m = sees.index(False)
        cells += [normalize_cell(config, (hull[i], hull[i + 1], lp))
                  for i in range(m)]
        hull = [hull[0], lp] + hull[m:]
    return tuple(sorted(cells))


def _require_generic(config: PointConfig) -> None:
    """Raise DegenerateConfig naming the first collinear triple, if any."""
    triples = config.collinear_triples
    if triples:
        raise DegenerateConfig(f"collinear points {list(triples[0])}")


def _flip_graph(config: PointConfig) -> Dict[Cells, List[Cells]]:
    """Every triangulation with its bistellar neighbours, by breadth-first
    search from the placing triangulation.  A collinear triple raises
    DegenerateConfig."""
    _require_generic(config)
    start = _seed_triangulation(config)
    hull = frozenset(convex_hull(config))
    graph: Dict[Cells, List[Cells]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        graph[t] = _neighbors(config, hull, t)
        for nb in graph[t]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return graph


def enumerate_triangulations(config: PointConfig) -> List[Cells]:
    """All triangulations of the configuration (any subset of the points may
    be used as vertices), by breadth-first search over bistellar moves from
    the placing triangulation.  A collinear triple raises DegenerateConfig."""
    return sorted(_flip_graph(config))


def brute_force_triangulations(config: PointConfig) -> List[Cells]:
    """Every triangulation, independent of the flip search: cells of three
    vertices grown over the lexicographically smallest uncovered boundary
    edge (see _tilings).  A collinear triple raises DegenerateConfig."""
    return _tilings(config, 3)


def _tilings(config: PointConfig, max_cell: int) -> List[Cells]:
    """Every subdivision whose cells have at most max_cell vertices (De
    Loera, Rambau and Santos, Triangulations, 2010).  For each set of used
    interior points, the uncovered region is kept as its directed boundary
    edges, region on the left; a cell is grown over the lexicographically
    smallest one (a, b) from a, b and used points strictly left of ab.  The
    cell must be strictly convex with no other used point in it or on it,
    and no boundary edge may cross one of its sides or lie along one of its
    diagonals.  A collinear triple raises DegenerateConfig."""
    _require_generic(config)
    hull = convex_hull(config)
    if len(hull) < 3:
        raise SubdivisionError("configuration is degenerate")
    pts = config.grid
    interior = [l for l in config.labels if l not in hull]
    start = frozenset((hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
    out = set()

    def grow(labels: List[str], boundary: FrozenSet[Tuple[str, str]],
             cells: Tuple[Cell, ...]) -> None:
        if not boundary:
            out.add(tuple(sorted(cells)))
            return
        a, b = min(boundary)
        left = [c for c in labels if orient(pts[a], pts[b], pts[c]) > 0]
        for r in range(1, min(max_cell - 2, len(left)) + 1):
            for extra in combinations(left, r):
                cell = tuple(hull_labels(config, (a, b) + extra))
                if len(cell) != r + 2:
                    continue
                poly = [pts[l] for l in cell]
                if any(point_in_convex_polygon(pts[d], poly)
                       for d in left if d not in extra):
                    continue
                sides = [(cell[i], cell[(i + 1) % len(cell)])
                         for i in range(len(cell))]
                # a boundary edge may coincide with a side (the two cancel),
                # but may not run along a diagonal or cross a side
                if any((u, v) not in sides and (v, u) not in sides and (
                        u in cell and v in cell or any(
                            segments_cross(pts[u], pts[v], pts[s], pts[t])
                            for s, t in sides if (s, t) != (a, b)))
                       for u, v in boundary):
                    continue
                nb = set(boundary)
                for u, v in sides:
                    if (u, v) in nb:
                        nb.remove((u, v))
                    else:
                        if (v, u) in nb:  # region on both sides of an edge: impossible bite
                            raise SubdivisionError("inconsistent region boundary")
                        nb.add((v, u))
                # a cell vertex off the new boundary is closed: covered all round
                ends = {l for e in nb for l in e}
                grow([l for l in labels if l not in cell or l in ends],
                     frozenset(nb), cells + (cell,))

    for r in range(len(interior) + 1):
        for extra in combinations(interior, r):
            grow(hull + list(extra), start, ())
    return sorted(out)


def regular_triangulations(config: PointConfig) -> List[Cells]:
    return [t for t in enumerate_triangulations(config) if is_regular(config, t)]


# -- GKZ vectors and the secondary polytope ------------------------------------


def _gkz_sum(config: PointConfig, cells: Cells) -> Tuple[int, ...]:
    """Per point, the total integer area on the grid of its incident cells:
    the GKZ vector times scale**2."""
    g = config.grid
    vol = dict.fromkeys(config.labels, 0)
    for cell in cells:
        v = normvol([g[l] for l in cell])
        for l in cell:
            vol[l] += v
    return tuple(vol[l] for l in config.labels)


def _unscaled(config: PointConfig, total: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """A grid GKZ sum divided by scale**2: the GKZ vector it stands for."""
    s2 = config.scale ** 2
    return tuple(Fraction(v, s2) for v in total)


def gkz_vector(config: PointConfig, cells: Cells) -> Tuple[Fraction, ...]:
    """Per point, the total normalized volume of its incident cells."""
    return _unscaled(config, _gkz_sum(config, cells))


def _affine_rank(vectors: Sequence[Tuple[int, ...]]) -> int:
    if len(vectors) <= 1:
        return 0
    v0 = vectors[0]
    return mat_rank([[x - y for x, y in zip(v, v0)] for v in vectors[1:]])


@dataclass
class SecondaryPolytope:
    config: PointConfig
    triangulations: List[Cells]         # every triangulation
    regular: List[Cells]                # the vertices, as triangulations
    gkz_vectors: List[Tuple[Fraction, ...]]  # aligned with `regular`
    edges: List[Tuple[int, int]]        # index pairs joined by a flip
    dim: int


def secondary_polytope(config: PointConfig) -> SecondaryPolytope:
    graph = _flip_graph(config)
    tris = sorted(graph)
    regular = [t for t in tris if is_regular(config, t)]
    sums = [_gkz_sum(config, t) for t in regular]
    gkz = [_unscaled(config, g) for g in sums]
    pos = {t: i for i, t in enumerate(regular)}
    edges = set()
    for i, t in enumerate(regular):
        for nb in graph[t]:
            j = pos.get(nb)
            if j is not None and i < j:
                edges.add((i, j))
    return SecondaryPolytope(config, tris, regular, gkz, sorted(edges),
                             _affine_rank(sums))


# -- all polyhedral subdivisions and the face lattice ---------------------------


def enumerate_subdivisions(config: PointConfig) -> List[Cells]:
    """Every polyhedral subdivision (cells strictly convex, vertices in the
    configuration), grown cell by cell as in brute_force_triangulations.  A
    collinear triple raises DegenerateConfig."""
    return _tilings(config, len(config))


def enumerate_marked_subdivisions(config: PointConfig) -> List[MarkedSubdivision]:
    out = []
    for cells in enumerate_subdivisions(config):
        choices: List[List[Tuple[str, ...]]] = []
        for cell in cells:
            poly = [config.grid[l] for l in cell]
            inside = [p for p in config.labels if p not in cell
                      and point_in_convex_polygon(config.grid[p], poly) == 2]
            per_cell = []
            for r in range(len(inside) + 1):
                for chosen in combinations(inside, r):
                    per_cell.append(tuple(sorted(set(cell) | set(chosen))))
            choices.append(per_cell)

        def expand(i: int, acc: Tuple[Tuple[str, ...], ...]) -> None:
            if i == len(cells):
                out.append(MarkedSubdivision(cells, acc))
                return
            for marks in choices[i]:
                expand(i + 1, acc + (marks,))

        expand(0, ())
    return out


@dataclass(frozen=True)
class Face:
    subdivision: MarkedSubdivision
    vertices: Tuple[int, ...]  # indices into FaceLattice.regular
    dim: int


@dataclass
class FaceLattice:
    config: PointConfig
    regular: List[Cells]
    gkz_vectors: List[Tuple[Fraction, ...]]
    faces: List[Face]  # sorted by (dim, vertices); includes vertices and top

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    def faces_of_dim(self, d: int) -> List[Face]:
        return [f for f in self.faces if f.dim == d]

    def top(self) -> Face:
        return max(self.faces, key=lambda f: len(f.vertices))

    def facets_of(self, face: Face) -> List[Face]:
        below = [g for g in self.faces
                 if set(g.vertices) < set(face.vertices)]
        return [g for g in below
                if not any(set(g.vertices) < set(h.vertices) for h in below)]


def _refines_marked(tri: Cells, mark_sets: List[FrozenSet[str]]) -> bool:
    return all(any(set(cell) <= m for m in mark_sets) for cell in tri)


def _is_vertex(msub: MarkedSubdivision) -> bool:
    """A triangulation marked only at its vertices."""
    return all(len(c) == 3 == len(mk) for c, mk in zip(msub.cells, msub.marks))


def secondary_face_lattice(config: PointConfig) -> FaceLattice:
    """All faces of the secondary polytope, as regular marked subdivisions.

    Each marked subdivision is tested once.  The vertices, the regular
    triangulations, are the triangulations marked only at their vertices
    that is_regular accepts, the test regular_triangulations applies; on
    these, is_regular and marked_is_regular build the same rows (module
    docstring).  Every other marked subdivision goes to marked_is_regular.

    Exhaustive over subdivisions, so limited to small configurations.
    """
    if len(config) > 6:
        raise SubdivisionError("face lattice enumeration supports at most 6 points")
    marked = [m for m in enumerate_marked_subdivisions(config)
              if (is_regular(config, m.cells) if _is_vertex(m)
                  else marked_is_regular(config, m))]
    regular = sorted(m.cells for m in marked if _is_vertex(m))
    sums = [_gkz_sum(config, t) for t in regular]
    by_vertices: Dict[Tuple[int, ...], Face] = {}
    for msub in marked:
        marks = msub.mark_sets()
        vs = tuple(i for i, t in enumerate(regular) if _refines_marked(t, marks))
        if not vs:
            raise SubdivisionError(f"regular marked subdivision with no refinement: {msub}")
        if vs in by_vertices:
            continue
        by_vertices[vs] = Face(msub, vs, _affine_rank([sums[i] for i in vs]))
    faces = sorted(by_vertices.values(), key=lambda f: (f.dim, f.vertices))
    return FaceLattice(config, regular, [_unscaled(config, g) for g in sums],
                       faces)


# -- face factorization ---------------------------------------------------------


@dataclass
class FaceFactorization:
    cells: Cells
    factors: List[PointConfig]      # configuration points inside each closed cell
    factor_counts: List[int]        # regular triangulation count per factor
    refinements: List[Cells]        # regular triangulations refining the cells
    problems: List[str]

    @property
    def verified(self) -> bool:
        return not self.problems


def face_factorization(config: PointConfig, cells: Iterable[Iterable[str]]) -> FaceFactorization:
    """Factor the face of the secondary polytope given by a regular subdivision
    as a product over its cells, and verify the factorization on the nose."""
    norm = validate_subdivision(config, cells)
    if not is_regular(config, norm):
        raise NotRegular("subdivision is not regular")
    grid = config.grid
    polys = [[grid[l] for l in cell] for cell in norm]
    factors = []
    for cell, poly in zip(norm, polys):
        inside = [l for l in config.labels
                  if point_in_convex_polygon(grid[l], poly) > 0]
        factors.append(config.subconfig(inside))
    factor_tris = [regular_triangulations(f) for f in factors]
    counts = [len(ft) for ft in factor_tris]

    all_marks = [frozenset(f.labels) for f in factors]
    refinements = [t for t in regular_triangulations(config)
                   if _refines_marked(t, all_marks)]

    problems: List[str] = []
    product = 1
    for c in counts:
        product *= c
    if len(refinements) != product:
        problems.append(f"refinement count {len(refinements)} != factor product {product}")

    seen = set()
    for t in refinements:
        key = []
        ok = True
        for cell, poly, factor, ft in zip(norm, polys, factors, factor_tris):
            tripled = [(3 * x, 3 * y) for x, y in poly]
            part = []
            for tri in t:
                # three times the centroid, against the tripled cell
                c = (sum(grid[l][0] for l in tri), sum(grid[l][1] for l in tri))
                if point_in_convex_polygon(c, tripled) == 2:
                    part.append(tri)
            restriction = tuple(sorted(part))
            if restriction not in ft:
                problems.append(f"restriction of {t} to cell {cell} is not a "
                                f"regular triangulation of the factor")
                ok = False
                break
            key.append(restriction)
        if not ok:
            continue
        key = tuple(key)
        if key in seen:
            problems.append(f"two refinements restrict identically: {key}")
        seen.add(key)
        # per-point volumes must add up cell by cell
        g = gkz_vector(config, t)
        total = [Fraction(0)] * len(config.labels)
        for factor, part in zip(factors, key):
            gf = gkz_vector(factor, part)
            for lab, val in zip(factor.labels, gf):
                total[config.labels.index(lab)] += val
        if tuple(total) != g:
            problems.append(f"volume vector of {t} does not split over the cells")
    return FaceFactorization(norm, factors, counts, refinements, problems)
