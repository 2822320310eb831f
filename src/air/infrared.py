"""Convex paths in a direction zeta and the Stokes matrix they assemble.

Vacua are ordered by increasing inner product with rho(zeta), the +90 degree
rotation of zeta.  A convex path visits vacua in strictly increasing order and
turns right at every interior vertex b, between a and c, which is
orient(a, b, c) < 0; equivalently each vertex is extreme in the convex hull
of the rays w + R+*zeta, an equivalence the tests check rather than assume.
Genericity is checked once per (configuration, zeta): a private frame holds
the order, its rank map and the positions, and every function here reads the
order from it.

The Stokes block C_ij sums the transport composites over all convex paths
from i to j.  Their number grows exponentially (on a convex arc every
increasing subsequence is one), so stokes_matrix never lists them: for each
source i a dynamic program over last edges keeps F[(a, b)], the summed
composites of the convex paths from i ending with the edge a -> b.  It starts
from F[(i, b)] = t_ib, adds t_bc F[(a, b)] into F[(b, c)] whenever a, b, c
turn right, taking the edges by increasing rank of b, and reads off
C_ij = sum_a F[(a, j)]; that is O(n^3) block products per source.
enumerate_convex_paths still lists the paths, for `air paths` and as the
definition the tests compare against.

The program runs on ints, as the elimination in linalg does.  The entries
of the transports into c from the labels before it are cleared together
(exactgeom.clear_denominators), which gives their scale e_c and the integer
matrices e_c t_bc.  Let P_c be the product of the e_x over the labels x up
to c in the order.  For b before c, P_c / P_b is e_c times the integer
P_c' / P_b, with c' the label before c, so B_bc = (P_c / P_b) t_bc is an
integer matrix.  For source i the program keeps F[(a, b)] scaled by
P_b / P_i: it starts from F[(i, b)] = B_ib, adds B_bc F[(a, b)] into
F[(b, c)] without any other factor, and divides each entry of C_ij by
P_j / P_i once, when it is emitted.  A large denominator on one transport
into c enters e_c, and so each scale, once, and is not raised to the length
of the path; when every transport is integral, as for every diagram read
off a superpotential, nothing is scaled.

An independent oracle reassembles the same matrix as an angle-ordered product
of elementary factors Id + t_ij E_ij, multiplied so that factors of smaller
angle from zeta act later; equality of the two is the headline acceptance
property.

Walls are the ray directions +-(w_j - w_i); between consecutive walls the
Stokes matrix is locally constant, and wall_cross_report samples the two
neighbouring chambers at exact mediant directions to expose the jump.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .exactgeom import (
    DegenerateConfig,
    Direction,
    PointConfig,
    angle_sorted,
    check_genericity,
    clear_denominators,
    convex_hull,
    cross,
    dot,
    orient,
    rho,
    vsub,
)
from .linalg import (Matrix, _block_layout, block_matrix, block_of,
                     identity, inverse, mat_addmul, mat_from_obj, mat_mul,
                     mat_to_obj, zeros)
from .lp import LinearSystem
from .perv import MatrixDiagram


class NonGenericZeta(ValueError):
    pass


class ParallelDifferences(ValueError):
    pass


class BadRay(ValueError):
    pass


class NotConvexPosition(ValueError):
    pass


class BadEndpoints(ValueError):
    """Path endpoints that are not labels, or not in zeta-order."""


# -- zeta order and convexity -------------------------------------------------------


@dataclass(frozen=True)
class _Frame:
    """Facts about a (configuration, zeta) pair, computed once."""
    order: List[str]                 # labels by increasing <w, rho(zeta)>
    rank: Dict[str, int]             # label -> index in order


def _frame(config: PointConfig, zeta: Direction) -> _Frame:
    rep = check_genericity(config, zeta=zeta.vec())
    if any(v[0] == "collinear" for v in rep.violations):
        raise DegenerateConfig(f"non-generic configuration: {rep.violations}")
    if not rep.ok:
        raise NonGenericZeta(f"tied projections for zeta={zeta}: "
                             f"{[v[1:] for v in rep.violations]}")
    r, g = rho(zeta.vec()), config.grid
    order = sorted(config.labels, key=lambda l: dot(g[l], r))
    return _Frame(order, {l: i for i, l in enumerate(order)})


def zeta_order(config: PointConfig, zeta: Direction) -> List[str]:
    """Labels by strictly increasing <w, rho(zeta)>."""
    return _frame(config, zeta).order


def _right_turn_chains(config: PointConfig, frame: _Frame, src: str,
                       last: str) -> Iterator[Tuple[str, ...]]:
    """Every chain from src, strictly increasing in the frame order and no
    further than last, that turns right at each interior vertex; depth
    first, the one-point chain (src,) first."""
    order, rank, pts = frame.order, frame.rank, config.grid
    chain = [src]

    def extend() -> Iterator[Tuple[str, ...]]:
        yield tuple(chain)
        tip = chain[-1]
        for nxt in order[rank[tip] + 1: rank[last] + 1]:
            if len(chain) >= 2 and orient(pts[chain[-2]], pts[tip],
                                          pts[nxt]) >= 0:
                continue
            chain.append(nxt)
            yield from extend()
            chain.pop()

    return extend()


def is_convex_path(config: PointConfig, zeta: Direction,
                   seq: Sequence[str]) -> bool:
    """Operational predicate: strictly increasing zeta-order, forward edges,
    right turns at interior vertices."""
    return _is_convex_path(config, _frame(config, zeta), seq)


def _is_convex_path(config: PointConfig, fr: _Frame,
                    seq: Sequence[str]) -> bool:
    if len(seq) == 0 or any(l not in fr.rank for l in seq):
        return False
    if any(fr.rank[a] >= fr.rank[b] for a, b in zip(seq, seq[1:])):
        return False  # the order is by projection, so every edge goes forward
    pts = config.grid
    return all(orient(pts[a], pts[b], pts[c]) < 0
               for a, b, c in zip(seq, seq[1:], seq[2:]))


def hull_vertex_convex_path(config: PointConfig, zeta: Direction,
                            seq: Sequence[str]) -> bool:
    """Definitional predicate: increasing zeta-order and every vertex extreme
    in the convex hull of the rays w_mu + R+*zeta, decided by exact
    feasibility (w is non-extreme iff it lies in conv(others) + R+*zeta)."""
    return _hull_vertex_convex_path(config, zeta, _frame(config, zeta), seq)


def _hull_vertex_convex_path(config: PointConfig, zeta: Direction,
                             fr: _Frame, seq: Sequence[str]) -> bool:
    rank = fr.rank
    if len(seq) == 0 or any(l not in rank for l in seq):
        return False
    if any(rank[a] >= rank[b] for a, b in zip(seq, seq[1:])):
        return False
    z = zeta.vec()
    pts = [config.point(l) for l in seq]
    for v, p in enumerate(pts):
        others = [q for u, q in enumerate(pts) if u != v]
        if not others:
            continue
        k = len(others)
        sys = LinearSystem(k + 1)  # lambda_1..k >= 0, s >= 0
        for var in range(k + 1):
            sys.add_le([-1 if u == var else 0 for u in range(k + 1)], 0)
        sys.add_eq([1] * k + [0], 1)
        for axis in range(2):
            sys.add_eq([q[axis] for q in others] + [z[axis]], p[axis])
        if sys.feasible_point() is not None:
            return False
    return True


def enumerate_convex_paths(config: PointConfig, zeta: Direction,
                           src: str, dst: str) -> List[Tuple[str, ...]]:
    """All convex paths src -> dst, shortest first, then by position."""
    fr = _frame(config, zeta)
    rank = fr.rank
    if src not in rank or dst not in rank:
        raise BadEndpoints(f"unknown labels {src}, {dst}")
    if rank[src] >= rank[dst]:
        raise BadEndpoints(f"{src} does not precede {dst} in the zeta-order")
    out = [ch for ch in _right_turn_chains(config, fr, src, dst)
           if ch[-1] == dst]
    out.sort(key=lambda ch: (len(ch), tuple(rank[l] for l in ch)))
    return out


# -- walls --------------------------------------------------------------------------


def stokes_rays(config: PointConfig) -> List[Direction]:
    """All wall directions +-(w_j - w_i), deduplicated, by increasing angle."""
    rays = set()
    labels, g = config.labels, config.grid
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            d = vsub(g[labels[j]], g[labels[i]])
            rays.add(Direction.of(d[0], d[1]))
            rays.add(Direction.of(-d[0], -d[1]))
    return [r for _, r in angle_sorted((r.vec(), r) for r in rays)]


# -- the Stokes matrix --------------------------------------------------------------


@dataclass
class StokesMatrix:
    zeta: Direction
    order: List[str]
    dims: Dict[str, int]
    blocks: Dict[Tuple[str, str], Matrix]  # (i, j), i before j: map Phi_i -> Phi_j

    def __post_init__(self):
        rank = {l: i for i, l in enumerate(self.order)}
        clean = {}
        for (i, j), b in self.blocks.items():
            if rank[i] >= rank[j]:
                raise ValueError(f"block {i}->{j} is not above the diagonal")
            if any(x != 0 for row in b for x in row):
                clean[(i, j)] = b
        self.blocks = clean

    def block(self, i: str, j: str) -> Matrix:
        if i == j:
            return identity(self.dims[i])
        if (i, j) in self.blocks:
            return [row[:] for row in self.blocks[(i, j)]]
        return zeros(self.dims[j], self.dims[i])

    def full_matrix(self, basis: Optional[Sequence[str]] = None) -> Matrix:
        """Assembled matrix on the direct sum in the given block basis order
        (the zeta-order by default)."""
        basis = list(basis) if basis is not None else list(self.order)
        rank = {l: i for i, l in enumerate(self.order)}

        def fn(src: str, tgt: str) -> Optional[Matrix]:
            if src == tgt or rank[src] >= rank[tgt]:
                return None
            return self.blocks.get((src, tgt))
        return block_matrix(basis, self.dims, fn)

    def to_obj(self) -> dict:
        return {
            "zeta": str(self.zeta),
            "order": list(self.order),
            "dims": {l: self.dims[l] for l in self.order},
            "blocks": {f"{i}->{j}": mat_to_obj(b)
                       for (i, j), b in sorted(self.blocks.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "StokesMatrix":
        zx, zy = obj["zeta"].split(",")
        dims = {l: int(v) for l, v in obj["dims"].items()}
        blocks = {}
        for key, rows in obj.get("blocks", {}).items():
            i, j = key.split("->")
            blocks[(i, j)] = mat_from_obj(rows, dims[j], dims[i],
                                          f"blocks[{key}]")
        return StokesMatrix(Direction.of(int(zx), int(zy)),
                            list(obj["order"]), dims, blocks)

    @staticmethod
    def from_json(text: str) -> "StokesMatrix":
        return StokesMatrix.from_obj(json.loads(text))


def stokes_matrix(md: MatrixDiagram, zeta: Direction) -> StokesMatrix:
    """C_ij = sum over convex paths i -> j of the transport composites, by
    the dynamic program over last edges, run on ints (see the module
    docstring)."""
    config = md.config
    order = _frame(config, zeta).order
    dims = md.phi_dims
    n = len(order)
    pts = config.grid
    # (a, b) -> the positions of the labels c after b at which a -> b -> c
    # turns right
    turns = {(order[x], order[y]): [z for z in range(y + 1, n)
                                    if orient(pts[order[x]], pts[order[y]],
                                              pts[order[z]]) < 0]
             for x in range(n) for y in range(x + 1, n)}
    # P[z]: the product of e over order[1..z], with e_c the scale of the
    # transports into c from before it; B[(b, c)] = (P_c / P_b) t_bc
    P = [1] * n
    B: Dict[Tuple[str, str], List[List[int]]] = {}
    for z in range(1, n):
        c = order[z]
        ints, e = clear_denominators([x for b in order[:z]
                                      for row in md.t(b, c) for x in row])
        P[z] = P[z - 1] * e
        it = iter(ints)
        for y in range(z):
            k = P[z - 1] // P[y]
            B[(order[y], c)] = [[k * next(it) for _ in range(dims[order[y]])]
                                for _ in range(dims[c])]
    blocks: Dict[Tuple[str, str], Matrix] = {}
    for s in range(n):
        i = order[s]
        ni = dims[i]
        # F[(a, b)]: P_b / P_i times the summed composites of the convex
        # paths from i ending a -> b; the edges from i are never added to
        F = {(i, order[y]): B[(i, order[y])] for y in range(s + 1, n)}
        for y in range(s + 1, n):
            b = order[y]
            total = [[0] * ni for _ in range(dims[b])]
            for a in order[s:y]:
                f = F.get((a, b))
                if f is None:
                    continue
                for o, row in zip(total, f):
                    for j, v in enumerate(row):
                        o[j] += v
                for z in turns[(a, b)]:
                    c = order[z]
                    g = F.get((b, c))
                    if g is None:
                        F[(b, c)] = g = [[0] * ni for _ in range(dims[c])]
                    mat_addmul(g, B[(b, c)], f)
            scale = P[y] // P[s]
            blocks[(i, b)] = [[Fraction(v, scale) for v in row]
                              for row in total]
    return StokesMatrix(zeta, order, dict(dims), blocks)


def stokes_matrix_oracle(md: MatrixDiagram, zeta: Direction) -> StokesMatrix:
    """The same matrix as an ordered product of elementary factors
    Id + t_ij E_ij over pairs i before j, in increasing angle of w_j - w_i
    from zeta; smaller angles act later (appear on the left)."""
    config = md.config
    order = _frame(config, zeta).order
    dims = md.phi_dims
    pairs = []
    seen: Dict[Direction, Tuple[str, str]] = {}  # direction up to sign -> pair
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            i, j = order[a], order[b]
            d = vsub(config.grid[j], config.grid[i])
            key = Direction.of(d[0], d[1])
            key = max(key, key.opposite(), key=lambda k: (k.dx, k.dy))
            if key in seen:
                raise ParallelDifferences(
                    f"{seen[key]} and {(i, j)} have parallel differences")
            seen[key] = (i, j)
            pairs.append((d, (i, j)))
    # all differences lie in the open halfplane ccw of zeta, so the cross
    # comparator is a strict total order by angle from zeta
    pairs.sort(key=functools.cmp_to_key(
        lambda p, q: -1 if cross(p[0], q[0]) > 0 else 1))
    offset, total = _block_layout(order, dims)
    prod = identity(total)
    # increasing angle; later factors multiply on the right:
    # P <- P (Id + T E_ij) only adds P[:, j-block] T into the i-block columns
    for _, (i, j) in pairs:
        T = md.t(i, j)
        ci, ni = offset[i], dims[i]
        cj, nj = offset[j], dims[j]
        for row in prod:
            rj = row[cj:cj + nj]
            if not any(rj):
                continue
            for a in range(ni):
                acc = sum((rj[b] * T[b][a] for b in range(nj)), Fraction(0))
                if acc:
                    row[ci + a] += acc
    blocks: Dict[Tuple[str, str], Matrix] = {}
    for a in range(len(order)):
        for b in range(len(order)):
            i, j = order[a], order[b]
            got = block_of(prod, order, dims, i, j)
            if a == b:
                if got != identity(dims[i]):
                    raise AssertionError("oracle diagonal is not the identity")
            elif a > b:
                if any(x != 0 for row in got for x in row):
                    raise AssertionError("oracle is not block triangular")
            else:
                blocks[(i, j)] = got
    return StokesMatrix(zeta, order, dict(dims), blocks)


# -- chambers and wall crossing ------------------------------------------------------


def _mediant(u: Direction, v: Direction) -> Direction:
    s = (u.dx + v.dx, u.dy + v.dy)
    if s == (0, 0):  # opposite rays: bisect with the perpendicular
        return Direction(v.dy, -v.dx)
    return Direction.of(s[0], s[1])


def _sample_beside(rays: List[Direction], ray: Direction,
                   side: str) -> Direction:
    if ray not in rays:
        raise BadRay(f"{ray} is not a wall of this configuration")
    k = rays.index(ray)
    if side == "after":
        return _mediant(ray, rays[(k + 1) % len(rays)])
    return _mediant(rays[(k - 1) % len(rays)], ray)


def chamber_sample(config: PointConfig, ray: Direction,
                   side: str = "after") -> Direction:
    """An exact direction strictly inside the chamber clockwise ("before") or
    anticlockwise ("after") of the given wall ray."""
    return _sample_beside(stokes_rays(config), ray, side)


@dataclass
class WallCrossReport:
    ray: Direction
    zeta_before: Direction
    zeta_after: Direction
    before: StokesMatrix
    after: StokesMatrix
    connecting: Matrix  # after * before^{-1} in config label block order

    def to_obj(self) -> dict:
        return {
            "ray": str(self.ray),
            "zeta_before": str(self.zeta_before),
            "zeta_after": str(self.zeta_after),
            "before": self.before.to_obj(),
            "after": self.after.to_obj(),
            "connecting": mat_to_obj(self.connecting),
        }


def wall_cross_report(md: MatrixDiagram, ray: Direction) -> WallCrossReport:
    rays = stokes_rays(md.config)
    zb = _sample_beside(rays, ray, "before")
    za = _sample_beside(rays, ray, "after")
    before = stokes_matrix(md, zb)
    after = stokes_matrix(md, za)
    basis = list(md.config.labels)
    fb = before.full_matrix(basis)
    fa = after.full_matrix(basis)
    connecting = mat_mul(fa, inverse(fb))
    return WallCrossReport(ray, zb, za, before, after, connecting)


# -- polygon traces ------------------------------------------------------------------


def polygon_trace(md: MatrixDiagram, subset: Sequence[str]) -> Fraction:
    """Trace of the transport composite around the boundary of the convex
    hull of the subset, traversed anticlockwise."""
    subset = list(subset)
    if len(set(subset)) != len(subset) or len(subset) < 3:
        raise NotConvexPosition("need at least three distinct labels")
    sub = md.config.subconfig(subset)
    ring = convex_hull(sub)
    if len(ring) != len(subset):
        raise NotConvexPosition("subset is not in strictly convex position")
    dims = md.phi_dims
    start = ring[0]
    comp = identity(dims[start])
    at = start
    for nxt in ring[1:] + [start]:
        comp = mat_mul(md.t(at, nxt), comp, dims[start])
        at = nxt
    return sum((comp[i][i] for i in range(dims[start])), Fraction(0))


# -- the filtered object -------------------------------------------------------------


@dataclass
class FsFiltration:
    order: List[str]
    dims: List[int]
    C: StokesMatrix

    def to_obj(self) -> dict:
        return {"order": list(self.order), "dims": list(self.dims),
                "C": self.C.to_obj()}


def fs_filtration(md: MatrixDiagram, zeta: Direction) -> FsFiltration:
    """The zeta-ordered dimension vector with the Stokes matrix as gluing
    datum."""
    C = stokes_matrix(md, zeta)
    return FsFiltration(list(C.order), [md.phi_dims[l] for l in C.order], C)
