"""Web algebra of a planar configuration and the algebra of infinite polygons.

Two graded structures are built here, both with exact rational coefficients.

The web CDGA is the free graded-commutative algebra on one generator per face
of the secondary polytope of every sub-configuration A' (|A'| >= 2, pairs give
a single degree-0 generator).  Generator degree = face dimension.  The
differential of a *top* generator rewrites each facet, i.e. each coarse
regular marked subdivision, as the product of the top generators of its cells'
mark sets; the differential of any other face generator is the plain cellular
boundary inside its own secondary polytope.  Orientations come from greedy
bases of GKZ-vertex differences taken in lexicographic vertex order, incidence
signs from determinants against an outward vector, and product signs from the
Koszul rule in sorted-generator order.  The GKZ vectors are the integer grid
sums, scale**2 times the volumes; every vector of one secondary polytope
carries that one positive factor, so every orientation sign is the one the
rational vectors give.  Each sign is read from fraction-free eliminations on
those integers (_orientation_sign).  d^2 = 0 is checked, never assumed.

The A-infinity algebra R has one basis element per infinite polygon: a chain
of configuration points, strictly increasing in the eta-order and turning
right at every interior point, closed off by two rays to infinity in the
direction eta.  Infinity is modeled as a far rational point M*eta, with M at
an exact bound past which every orientation that involves the far point has
its M -> infinity sign (see _far_bound).  m2 glues two polygons sharing
a ray and its sign is the incidence coefficient of the corresponding facet of
the glued polygon's secondary polytope; all higher products vanish (gluings of
three or more cells sit in codimension >= 2), which the Stasheff checker
verifies rather than trusts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactgeom import (
    DegenerateConfig,
    Direction,
    Point,
    PointConfig,
    cross,
    orient,
    pt,
    vsub,
)
from .infrared import NonGenericZeta, _frame, _right_turn_chains
from .linalg import Matrix, _reduce, mat_mul, transpose, zeros
from .secondary import (
    Cells,
    Cell,
    FaceLattice,
    SubdivisionError,
    _gkz_sum,
    enumerate_triangulations,
    normalize_cell,
    secondary_face_lattice,
)


class FaceLatticeUnavailable(ValueError):
    pass


class SignInconsistency(AssertionError):
    """Raised when the implemented orientation convention fails d^2 = 0."""


class UnstableM(ValueError):
    pass


K_MAX = 4  # the highest arity check_stasheff evaluates


# -- orientation data ----------------------------------------------------------


def _greedy_basis(vectors: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Maximal independent subsequence, greedily in the given order: the
    pivot columns of the matrix whose columns are the vectors."""
    _, pivots, _ = _reduce(transpose(list(vectors)), len(vectors))
    return [vectors[c] for c in pivots]


@dataclass
class _FaceData:
    vertices: Tuple[int, ...]
    gkz: List[Tuple[int, ...]]        # the vertices' GKZ vectors times scale**2
    basis: List[Tuple[int, ...]]
    total: Tuple[int, ...]            # the sum of gkz
    dim: int


def _face_data(vertex_ids: Sequence[int], gkz_vectors) -> _FaceData:
    vs = tuple(vertex_ids)
    g = [gkz_vectors[i] for i in vs]
    v0 = g[0]
    basis = _greedy_basis([tuple(x - y for x, y in zip(v, v0)) for v in g[1:]])
    total = tuple(map(sum, zip(*g)))
    return _FaceData(vs, g, basis, total, len(basis))


def _orientation_sign(face: _FaceData, cols: List[Sequence[int]],
                      mismatch: str) -> int:
    """Sign of det X for the coordinates X of the columns in the face's basis
    B (B X = cols), from one elimination of [B | cols] over B's columns.  A
    column off B's span, a column count other than B's size (``mismatch``)
    and a singular X raise SignInconsistency.

    With R the pivot rows, X = B_R^-1 cols_R, so the sign is
    sign det(cols_R) * sign det(B_R).  The elimination leaves T B_R and
    T cols_R in its top rows with T lower triangular, so that is also the
    sign of det(T cols_R) times the signs of the pivots, the diagonal of
    T B_R: det T enters squared."""
    k = len(face.basis)
    rows, pivots, _ = _reduce([[b[i] for b in face.basis] + [c[i] for c in cols]
                               for i in range(len(face.total))], k)
    if any(x for row in rows[k:] for x in row[k:]):
        raise SignInconsistency("vector does not lie in the face's span")
    if len(cols) != k:
        raise SignInconsistency(mismatch)
    if not k:
        return 1
    tops, top_pivots, swaps = _reduce([row[k:] for row in rows[:k]], k)
    if len(top_pivots) < k:
        raise SignInconsistency("degenerate orientation comparison")
    negative = (tops[-1][-1] < 0) != (swaps < 0)
    for i, c in enumerate(pivots):
        negative ^= rows[i][c] < 0
    return -1 if negative else 1


def _incidence_sign(face: _FaceData, facet: _FaceData) -> int:
    """Sign comparing the facet's orientation, preceded by an outward vector,
    with the face's orientation.  The outward vector is
    n_face * (facet total) - n_facet * (face total), n_face * n_facet times
    the step between the barycenters."""
    nf, ng = len(face.vertices), len(facet.vertices)
    out = tuple(nf * b - ng * a for a, b in zip(face.total, facet.total))
    return _orientation_sign(face, [out] + facet.basis,
                             "facet dimension mismatch")


def _product_sign(facet: _FaceData, labels: Sequence[str],
                  pieces: Sequence[Tuple[Sequence[str], _FaceData]]) -> int:
    """Sign comparing the facet's orientation with the product orientation of
    the pieces: each piece's basis, zero-extended from its labels to
    `labels`, concatenated in the given order."""
    index = {l: i for i, l in enumerate(labels)}
    cols: List[List[int]] = []
    for piece_labels, piece in pieces:
        for b in piece.basis:
            ext = [0] * len(labels)
            for l, x in zip(piece_labels, b):
                ext[index[l]] = x
            cols.append(ext)
    return _orientation_sign(facet, cols,
                             "factorization does not span the facet")


class _LatticeData(NamedTuple):
    faces: List[_FaceData]                # in lattice order
    facets: List[List[Tuple[int, int]]]   # per face: (facet position, sign)
    top: int                              # position of the top face


def _lattice_face_data(lattice: FaceLattice) -> _LatticeData:
    """Face data and signed facets of a lattice, faces found by vertex tuple.
    A facet that does not drop the dimension by one raises SignInconsistency."""
    gkz = [_gkz_sum(lattice.config, t) for t in lattice.regular]
    data = [_face_data(f.vertices, gkz) for f in lattice.faces]
    index = {f.vertices: i for i, f in enumerate(lattice.faces)}
    facets = []
    for face, fdata in zip(lattice.faces, data):
        ids = [index[g.vertices] for g in lattice.facets_of(face)]
        facets.append([(j, _incidence_sign(fdata, data[j])) for j in ids])
    return _LatticeData(data, facets, index[lattice.top().vertices])


# -- polyhedral chain complexes -------------------------------------------------


@dataclass
class ChainComplex:
    generators: List[Tuple[int, int]]        # (id, degree), id = face index
    boundary: Dict[int, Matrix]              # degree k -> matrix C_k -> C_{k-1}
    lattice: FaceLattice


def polyhedral_chain_complex(source) -> ChainComplex:
    """Cellular chains of a secondary polytope, from its face lattice.

    Accepts a PointConfig or a prebuilt FaceLattice.
    """
    if isinstance(source, FaceLattice):
        lattice = source
    elif isinstance(source, PointConfig):
        try:
            lattice = secondary_face_lattice(source)
        except SubdivisionError as exc:
            raise FaceLatticeUnavailable(str(exc)) from exc
    else:
        raise TypeError("expected a PointConfig or FaceLattice")
    data, facets, _ = _lattice_face_data(lattice)
    generators = [(i, d.dim) for i, d in enumerate(data)]
    top_dim = max(d.dim for d in data)
    pos_in_degree: Dict[int, Dict[int, int]] = {}
    for k in range(top_dim + 1):
        ids = [i for i, d in enumerate(data) if d.dim == k]
        pos_in_degree[k] = {gid: r for r, gid in enumerate(ids)}
    boundary: Dict[int, Matrix] = {}
    for k in range(1, top_dim + 1):
        rows = pos_in_degree[k - 1]
        cols = pos_in_degree[k]
        mat = zeros(len(rows), len(cols))
        for gid, c in cols.items():
            for fid, eps in facets[gid]:
                mat[rows[fid]][c] = Fraction(eps)
        boundary[k] = mat
    for k in range(2, top_dim + 1):
        sq = mat_mul(boundary[k - 1], boundary[k])
        if any(x != 0 for row in sq for x in row):
            raise SignInconsistency("boundary does not square to zero")
    return ChainComplex(generators, boundary, lattice)


# -- graded-commutative monomial algebra ----------------------------------------

# An element is a dict: sorted tuple of generator ids -> coefficient.
Element = Dict[Tuple[int, ...], Fraction]


def _merge_sorted(m1: Tuple[int, ...], m2: Tuple[int, ...],
                  degree: Dict[int, int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Koszul merge of two sorted monomials; None when an odd generator repeats."""
    out: List[int] = []
    sign = 1
    i = j = 0
    odd_left = sum(1 for g in m1 if degree[g] % 2)
    while i < len(m1) or j < len(m2):
        if j == len(m2) or (i < len(m1) and m1[i] <= m2[j]):
            g = m1[i]
            i += 1
            if degree[g] % 2:
                odd_left -= 1
            out.append(g)
        else:
            g = m2[j]
            j += 1
            if degree[g] % 2:
                if i < len(m1) and m1[i] == g:
                    return None  # odd generator squared
                if out and out[-1] == g:
                    return None
                if odd_left % 2:
                    sign = -sign
            out.append(g)
    return tuple(out), sign


def el_add(a: Element, b: Element, coeff: Fraction = Fraction(1)) -> Element:
    out = dict(a)
    for m, c in b.items():
        c = c * coeff
        if m in out:
            c = out[m] + c
            if c == 0:
                del out[m]
                continue
        if c != 0:
            out[m] = c
        elif m in out:
            del out[m]
    return out


def el_mul(a: Element, b: Element, degree: Dict[int, int]) -> Element:
    out: Element = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            merged = _merge_sorted(m1, m2, degree)
            if merged is None:
                continue
            mono, sign = merged
            c = out.get(mono, Fraction(0)) + sign * c1 * c2
            if c == 0:
                out.pop(mono, None)
            else:
                out[mono] = c
    return out


# -- the web CDGA ----------------------------------------------------------------


@dataclass(frozen=True)
class WebGenerator:
    gid: int
    labels: Tuple[str, ...]               # the sub-configuration
    face_index: Optional[int]             # index into its lattice; None for pairs
    degree: int
    is_top: bool
    name: str


@dataclass
class WebCdga:
    config: PointConfig
    generators: List[WebGenerator]
    differential: Dict[int, Element]      # generator id -> d(generator)
    lattices: Dict[Tuple[str, ...], FaceLattice]
    degree: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.degree:
            self.degree = {g.gid: g.degree for g in self.generators}

    def d_element(self, elem: Element) -> Element:
        out: Element = {}
        for mono, coeff in elem.items():
            sign = 1
            for i, g in enumerate(mono):
                dg = self.differential[g]
                if dg:
                    prefix = {mono[:i]: Fraction(sign)}
                    term = el_mul(prefix, dg, self.degree)
                    term = el_mul(term, {mono[i + 1:]: Fraction(1)}, self.degree)
                    out = el_add(out, term, coeff)
                if self.degree[g] % 2:
                    sign = -sign
        return out

    def to_obj(self) -> dict:
        names = {g.gid: g.name for g in self.generators}
        return {
            "generators": [
                {"name": g.name, "degree": g.degree,
                 "labels": list(g.labels), "top": g.is_top}
                for g in self.generators
            ],
            "differential": {
                names[gid]: {
                    "*".join(names[g] for g in mono) if mono else "1":
                        str(coeff)
                    for mono, coeff in sorted(elem.items())
                }
                for gid, elem in sorted(self.differential.items())
                if elem
            },
        }


def build_web_cdga(config: PointConfig) -> WebCdga:
    """Assemble generators over every sub-configuration and the factorization
    differential; raises SignInconsistency unless d^2 = 0 exactly."""
    if len(config) > 6:
        raise FaceLatticeUnavailable("web CDGA needs face lattices (at most 6 points)")

    labels = config.labels
    lattices: Dict[Tuple[str, ...], FaceLattice] = {}
    face_data: Dict[Tuple[str, ...], _LatticeData] = {}
    generators: List[WebGenerator] = []
    gid_of: Dict[Tuple[Tuple[str, ...], Optional[int]], int] = {}

    def add_gen(sub: Tuple[str, ...], face_index: Optional[int], degree: int,
                is_top: bool) -> None:
        gid = len(generators)
        name = ",".join(sub) + ("" if face_index is None else f":f{face_index}")
        generators.append(WebGenerator(gid, sub, face_index, degree, is_top, name))
        gid_of[(sub, face_index)] = gid

    for size in range(2, len(labels) + 1):
        for sub in combinations(labels, size):
            if size == 2:
                add_gen(sub, None, 0, True)
                continue
            lattice = secondary_face_lattice(config.subconfig(sub))
            lattices[sub] = lattice
            face_data[sub] = _lattice_face_data(lattice)
            for idx, f in enumerate(lattice.faces):
                add_gen(sub, idx, f.dim, idx == face_data[sub].top)

    def top_gid(sub: Tuple[str, ...]) -> int:
        if len(sub) == 2:
            return gid_of[(sub, None)]
        return gid_of[(sub, face_data[sub].top)]

    degree = {g.gid: g.degree for g in generators}
    differential: Dict[int, Element] = {}
    for g in generators:
        if g.face_index is None:  # pair
            differential[g.gid] = {}
            continue
        lattice = lattices[g.labels]
        data = face_data[g.labels]
        elem: Element = {}
        for fidx, eps in data.facets[g.face_index]:
            if not g.is_top:
                elem = el_add(elem, {(gid_of[(g.labels, fidx)],): Fraction(eps)})
                continue
            kappa, mono = _factorized_facet(g.labels, lattice.faces[fidx],
                                            data.faces[fidx], face_data,
                                            top_gid)
            elem = el_add(elem, {mono: Fraction(eps * kappa)})
        differential[g.gid] = elem

    cdga = WebCdga(config, generators, differential, lattices, degree)
    bad = [g.name for g in generators
           if cdga.d_element(cdga.differential[g.gid])]
    if bad:
        raise SignInconsistency(f"d^2 != 0 on generators: {bad}")
    return cdga


def _factorized_facet(sub: Tuple[str, ...], facet, facet_data: _FaceData,
                      face_data, top_gid
                      ) -> Tuple[int, Tuple[int, ...]]:
    """Rewrite a facet (a coarse marked subdivision) as +-(product of the top
    generators of its cells' mark sets), with the orientation-comparison sign."""
    factors = [tuple(m) for m in facet.subdivision.marks]
    gids = [top_gid(f) for f in factors]
    order = sorted(range(len(gids)), key=lambda i: gids[i])
    # factors in the sorted order the monomial is written in; a pair's
    # polytope is a point
    ordered = [factors[i] for i in order if len(factors[i]) > 2]
    kappa = _product_sign(facet_data, sub,
                          [(f, face_data[f].faces[face_data[f].top])
                           for f in ordered])
    mono = tuple(gids[i] for i in order)
    for a, b in zip(mono, mono[1:]):
        if a == b:
            raise SignInconsistency("repeated factor in a facet monomial")
    return kappa, mono


@dataclass
class DSquaredReport:
    ok: bool
    failing_generators: List[str]


def check_d_squared(cdga: WebCdga) -> DSquaredReport:
    failing = [g.name for g in cdga.generators
               if cdga.d_element(cdga.differential[g.gid])]
    return DSquaredReport(not failing, failing)


# -- extended triangulations -----------------------------------------------------

INF = "∞"


@dataclass(frozen=True)
class ExtendedTriangulation:
    cells: Cells                      # canonical cells over the far-point model
    infinite: Tuple[Cell, ...]        # (INF, a, b) ccw around the far point
    finite: Cells
    eta: Direction
    M: Fraction

    def key(self):
        return (tuple(sorted(tuple(sorted(c)) for c in self.cells)),
                tuple((c[1], c[2]) for c in self.infinite))


def _far_point(eta: Direction, M: Fraction) -> Point:
    return pt(M * eta.dx, M * eta.dy)


def _far_bound(config: PointConfig, eta: Direction) -> Fraction:
    """A bound past which config + {M*eta} has its M -> infinity combinatorics.

    orient(a, b, M*eta) is the sign of M*cross(b-a, eta) - cross(b-a, a), so it
    keeps its limit sign once M exceeds every |cross(b-a, a)| / |cross(b-a, eta)|
    (when cross(b-a, eta) = 0 it does not depend on M).  And since
    |eta|_1 >= 1, M*eta then lies outside the L1 ball around the
    configuration: it meets no point, lies outside the hull and has a fixed
    lexicographic place.  So for every M at or above the bound the chirotope,
    the triangulations and the canonical cells are the limit ones, on every
    sub-configuration too.
    """
    pts = list(config.coords.values())
    v = eta.vec()
    radius = max((abs(p.x) + abs(p.y) for p in pts), default=0)
    ratio = max((abs(cross(vsub(b, a), a)) / abs(c)
                 for a, b in combinations(pts, 2)
                 if (c := cross(vsub(b, a), v)) != 0), default=0)
    return Fraction(1 + radius + ratio)


def _extended_at(config: PointConfig, eta: Direction, M: Fraction
                 ) -> List[ExtendedTriangulation]:
    """Extended triangulations with the far point at M*eta, M >= _far_bound."""
    ext = config.with_point(INF, _far_point(eta, M))
    g = ext.grid
    p = g[INF]

    def height(cell: Cell) -> int:  # <a + b, rho(eta)>, on the grid
        (ax, ay), (bx, by) = g[cell[1]], g[cell[2]]
        return eta.dx * (ay + by) - eta.dy * (ax + bx)

    out = []
    for tri in enumerate_triangulations(ext):
        inf_cells = []
        fin_cells = []
        for c in tri:
            if INF in c:
                a, b = [l for l in c if l != INF]
                if orient(p, g[a], g[b]) < 0:
                    a, b = b, a
                inf_cells.append((INF, a, b))
            else:
                fin_cells.append(c)
        # anticlockwise around the far point is decreasing height as M -> oo
        inf_cells.sort(key=height, reverse=True)
        out.append(ExtendedTriangulation(tri, tuple(inf_cells),
                                         tuple(fin_cells), eta, M))
    out.sort(key=lambda e: e.key())
    return out


def extended_triangulations(config: PointConfig,
                            eta: Direction) -> List[ExtendedTriangulation]:
    """Triangulations of the configuration together with a far point M*eta.

    The far point stands for the vacuum at infinity in the direction eta.  It
    sits at M = _far_bound, past which the triangulations are the
    M -> infinity ones.  A collinear triple, the far point included, raises
    DegenerateConfig.
    """
    return _extended_at(config, eta, _far_bound(config, eta))


# -- the algebra of infinite polygons ---------------------------------------------


def convex_chains(config: PointConfig, eta: Direction) -> List[Tuple[str, ...]]:
    """All chains of length >= 2, strictly increasing in the eta-order and
    turning right at every interior point."""
    try:
        fr = _frame(config, eta)
    except NonGenericZeta as e:
        raise DegenerateConfig(f"eta is not generic: {e}") from e
    chains = [ch for start in fr.order
              for ch in _right_turn_chains(config, fr, start, fr.order[-1])
              if len(ch) >= 2]
    chains.sort(key=lambda ch: (len(ch), tuple(fr.rank[l] for l in ch)))
    return chains


@dataclass
class AInfAlgebra:
    config: PointConfig
    eta: Direction
    basis: List[Tuple[str, ...]]                 # chains, canonical order
    degrees: List[int]                           # len(chain) - 2
    m2: Dict[Tuple[int, int], Tuple[int, Fraction]]  # (i, j) -> (k, coeff)
    M: Fraction = Fraction(0)

    def m(self, k: int, args: Sequence[int]) -> Dict[int, Fraction]:
        """m_k applied to basis indices; sparse result {basis index: coeff}."""
        if k == 2:
            hit = self.m2.get((args[0], args[1]))
            return {hit[0]: hit[1]} if hit else {}
        return {}

    def to_obj(self) -> dict:
        names = ["-".join(ch) for ch in self.basis]
        return {
            "eta": str(self.eta),
            "basis": [{"chain": list(ch), "degree": d}
                      for ch, d in zip(self.basis, self.degrees)],
            "m2": {f"{names[i]}|{names[j]}": {names[k]: str(c)}
                   for (i, j), (k, c) in sorted(self.m2.items())},
        }


class _FarPolygon(NamedTuple):
    config: PointConfig               # the far point first, then configuration order
    triangulations: List[Cells]
    gkz: List[Tuple[int, ...]]        # grid GKZ sums of the triangulations
    top: _FaceData                    # the whole secondary polytope


def _far_config(config: PointConfig, eta: Direction, M: Fraction,
                chain: Tuple[str, ...]) -> PointConfig:
    """The far-point model of the infinite polygon on a chain."""
    return config.subconfig(chain).with_point(INF, _far_point(eta, M),
                                              front=True)


def _far_polygon(cfg: PointConfig, triangulations: List[Cells]) -> _FarPolygon:
    """A far-point model with the GKZ vectors of its triangulations and its
    secondary polytope's face data."""
    gkz = [_gkz_sum(cfg, t) for t in triangulations]
    return _FarPolygon(cfg, triangulations, gkz,
                       _face_data(range(len(triangulations)), gkz))


def _glued_face_sign(glued: _FarPolygon, left: _FarPolygon,
                     right: _FarPolygon) -> Fraction:
    """Coefficient of (left piece, right piece) in the boundary of the glued
    infinite polygon, computed in the secondary polytope of its far-point
    model.  The pieces are the polygons of the two halves of the chain cut at
    a shared point."""
    cfg = glued.config
    marks = [frozenset(left.config.labels), frozenset(right.config.labels)]
    facet_ids = [i for i, t in enumerate(glued.triangulations)
                 if all(any(set(c) <= m for m in marks) for c in t)]
    facet = _face_data(facet_ids, glued.gkz)
    if facet.dim != glued.top.dim - 1:
        raise SignInconsistency("splitting is not a facet of the glued polygon")
    eps = _incidence_sign(glued.top, facet)
    # operadic order: the left piece first
    return Fraction(eps * _product_sign(facet, cfg.labels,
                                        [(left.config.labels, left.top),
                                         (right.config.labels, right.top)]))


def build_ainf(config: PointConfig, eta: Direction) -> AInfAlgebra:
    """The algebra of infinite polygons in direction eta."""
    basis = convex_chains(config, eta)
    idx = {ch: i for i, ch in enumerate(basis)}
    M = _far_bound(config, eta)
    # past the bound the triangulations are the M -> infinity ones, so they
    # are found once, at M
    triangulations = []
    for chain in basis:
        cfg = _far_config(config, eta, M, chain)
        normalize_cell(cfg, cfg.labels)  # must be strictly convex
        triangulations.append(enumerate_triangulations(cfg))

    def m2_at(m: Fraction) -> Dict[Tuple[int, int], Tuple[int, Fraction]]:
        polys = [_far_polygon(_far_config(config, eta, m, chain), tris)
                 for chain, tris in zip(basis, triangulations)]
        table: Dict[Tuple[int, int], Tuple[int, Fraction]] = {}
        for k, chain in enumerate(basis):
            for cut in range(1, len(chain) - 1):
                i, j = idx.get(chain[:cut + 1]), idx.get(chain[cut:])
                if i is None or j is None:
                    continue
                table[(i, j)] = (k, _glued_face_sign(polys[k], polys[i],
                                                     polys[j]))
        return table

    m2 = m2_at(M)
    # the bound fixes the combinatorics, not the signs of the GKZ volumes
    if m2 != m2_at(2 * M):
        raise UnstableM("structure constants change under doubling M")
    return AInfAlgebra(config, eta, basis, [len(c) - 2 for c in basis], m2, M)


@dataclass
class StasheffReport:
    ok: bool
    failures: List[Tuple[int, Tuple[int, ...]]]  # (arity, offending basis tuple)


def check_stasheff(alg: AInfAlgebra, max_arity: int = 4) -> StasheffReport:
    """Verify the coderivation identities on every basis tuple.

    Degrees are the shifted (bar) ones, len(chain) - 2, and the products obey
    m2(m2(x,y),z) + (-1)^{deg x} m2(x,m2(y,z)) = 0 with every higher product
    zero, so arities other than 3 are vacuous; all are still evaluated
    literally so a corrupted table is caught.  Both arity-3 terms vanish
    unless m2(x,y) = k with (k,z) in m2, or m2(y,z) = k with (x,k) in m2, so
    only those triples are evaluated, in lexicographic order.
    """
    if max_arity > K_MAX:
        raise ValueError(f"max_arity {max_arity} exceeds K_max {K_MAX}")
    failures: List[Tuple[int, Tuple[int, ...]]] = []
    n = len(alg.basis)
    if max_arity >= 3:
        seconds: Dict[int, List[int]] = {}  # x -> every y with (x, y) in m2
        firsts: Dict[int, List[int]] = {}   # y -> every x with (x, y) in m2
        for x, y in alg.m2:
            seconds.setdefault(x, []).append(y)
            firsts.setdefault(y, []).append(x)
        triples = set()
        for (a, b), (k, _) in alg.m2.items():
            triples.update((a, b, z) for z in seconds.get(k, ()))
            triples.update((x, a, b) for x in firsts.get(k, ()))
        for x, y, z in sorted(triples):
            if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
                continue  # a corrupted key off the basis is no basis tuple
            sx = -1 if alg.degrees[x] % 2 else 1
            acc: Dict[int, Fraction] = {}
            for k, c in alg.m(2, (x, y)).items():
                for k2, c2 in alg.m(2, (k, z)).items():
                    acc[k2] = acc.get(k2, Fraction(0)) + c * c2
            for k, c in alg.m(2, (y, z)).items():
                for k2, c2 in alg.m(2, (x, k)).items():
                    acc[k2] = acc.get(k2, Fraction(0)) + sx * c * c2
            if any(v != 0 for v in acc.values()):
                failures.append((3, (x, y, z)))
    if max_arity >= 4:
        # every arity-4 term contains an m3 or m4, zero by construction;
        # verify the tables really are empty
        if alg.m(3, (0, 0, 0)) or alg.m(4, (0, 0, 0, 0)):
            failures.append((4, (0, 0, 0, 0)))
    return StasheffReport(not failures, failures)
