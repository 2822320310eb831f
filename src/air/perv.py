"""Linear-algebra diagrams modeling local systems on the punctured plane.

A GMV diagram keeps one global space Psi of dimension m and, per marked point
i, a space Phi_i of dimension n_i with maps a_i: Phi_i -> Psi and
a'_i: Psi -> Phi_i; it is valid when 1 - a_i a'_i and 1 - a'_i a_i are both
invertible.  A matrix diagram forgets Psi and keeps the rectilinear data it
induces: monodromies mu_i = 1 - a'_i a_i and transports t_ij = a'_j a_i, of
shape n_j x n_i, for every ordered pair.  Matrices are nested lists of
Fraction; zero-dimensional Phi_i are fully supported.  A diagram that
`lefschetz.matrix_diagram_from_W` emits holds straight-segment data: t_ij
is the transport along the segment w_i w_j, which is what the Stokes sums
of `infrared` read, not a spider composite in `order`.

Transport along a path word multiplies the moves right-to-left.  A detour
around p corrects the straight transport by the composite through p: left
adds t_pl t_kp, right subtracts it, so sliding a path across p and back is
exactly the identity.  Winding detours (which would pick up mu_p twists) are
not expressible in this word encoding.

Braid mutations act on the linear spider order carried by the diagram. The
strand passing behind picks up the Picard-Lefschetz correction; the exact
convention is the one under which sigma_k and its inverse cancel, the braid
relations hold, and the characteristic polynomial of the total monodromy is
preserved, all of which the tests enforce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exactgeom import (
    DegenerateConfig,
    PointConfig,
    check_genericity,
    on_segment,
)
from .linalg import (Matrix, _block_layout, block_matrix, charpoly, det,
                     has_shape, identity, inverse, mat_add, mat_from_obj,
                     mat_mul, mat_sub, mat_to_obj, zeros)


class InvalidGmv(ValueError):
    pass


class MalformedPath(ValueError):
    pass


class BadGenerator(ValueError):
    pass


class MalformedDiagram(ValueError):
    """A diagram document lacks a key or has the wrong shape."""


class SingularMonodromy(ValueError):
    """A diagram's monodromy at some point is not invertible."""


def _require(obj, keys: Sequence[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise MalformedDiagram(f"{where} must be a JSON object")
    for k in keys:
        if k not in obj:
            raise MalformedDiagram(f"{where} lacks key {k!r}")


def _dim(v, where: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise MalformedDiagram(f"{where} must be a nonnegative integer, "
                               f"not {v!r}")
    return v


# -- GMV diagrams -----------------------------------------------------------------


@dataclass
class GmvDiagram:
    config: PointConfig
    psi_dim: int
    phi_dims: Dict[str, int]
    a: Dict[str, Matrix]          # label -> m x n_i
    a_prime: Dict[str, Matrix]    # label -> n_i x m

    def __post_init__(self):
        if self.psi_dim < 0:
            raise MalformedDiagram("psi_dim must be nonnegative")
        for l in self.config.labels:
            n = self.phi_dims.get(l)
            if n is None or n < 0:
                raise MalformedDiagram(f"missing or negative phi_dims[{l}]")
            ai, api = self.a.get(l), self.a_prime.get(l)
            if ai is None or not has_shape(ai, self.psi_dim, n):
                raise MalformedDiagram(f"a[{l}] must be {self.psi_dim}x{n}")
            if api is None or not has_shape(api, n, self.psi_dim):
                raise MalformedDiagram(f"a_prime[{l}] must be "
                                       f"{n}x{self.psi_dim}")

    def to_obj(self) -> dict:
        return {
            "points": self.config.to_obj()["points"],
            "psi_dim": self.psi_dim,
            "phi_dims": {l: self.phi_dims[l] for l in self.config.labels},
            "a": {l: mat_to_obj(self.a[l]) for l in self.config.labels},
            "a_prime": {l: mat_to_obj(self.a_prime[l]) for l in self.config.labels},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "GmvDiagram":
        _require(obj, ("points", "psi_dim", "phi_dims", "a", "a_prime"),
                 "GMV diagram")
        config = PointConfig.from_obj({"points": obj["points"]})
        for key in ("phi_dims", "a", "a_prime"):
            _require(obj[key], config.labels, key)
        m = _dim(obj["psi_dim"], "psi_dim")
        dims = {l: _dim(obj["phi_dims"][l], f"phi_dims[{l}]")
                for l in config.labels}
        a = {l: mat_from_obj(obj["a"][l], name=f"a[{l}]")
             for l in config.labels}
        ap = {l: mat_from_obj(obj["a_prime"][l], name=f"a_prime[{l}]")
              for l in config.labels}
        return GmvDiagram(config, m, dims, a, ap)

    @staticmethod
    def from_json(text: str) -> "GmvDiagram":
        return GmvDiagram.from_obj(json.loads(text))


@dataclass
class GmvReport:
    ok: bool
    det_psi_side: Dict[str, Fraction]   # det(1 - a_i a'_i)
    det_phi_side: Dict[str, Fraction]   # det(1 - a'_i a_i)
    violations: List[str]

    def __bool__(self):
        return self.ok


def validate_gmv(g: GmvDiagram) -> GmvReport:
    """Check both monodromy factors are invertible at every point."""
    dpsi, dphi, bad = {}, {}, []
    m = g.psi_dim
    for l in g.config.labels:
        n = g.phi_dims[l]
        psi = mat_sub(identity(m), mat_mul(g.a[l], g.a_prime[l], m))
        phi = mat_sub(identity(n), mat_mul(g.a_prime[l], g.a[l], n))
        dpsi[l] = det(psi)
        dphi[l] = det(phi)
        if dpsi[l] == 0 or dphi[l] == 0:
            bad.append(l)
    return GmvReport(not bad, dpsi, dphi, bad)


# -- matrix diagrams ---------------------------------------------------------------


@dataclass
class MatrixDiagram:
    config: PointConfig
    phi_dims: Dict[str, int]
    monodromies: Dict[str, Matrix]               # label -> n_i x n_i, invertible
    transports: Dict[Tuple[str, str], Matrix]    # (i, j) -> t_ij, n_j x n_i
    order: List[str] = field(default_factory=list)  # linear spider order

    def __post_init__(self):
        labels = self.config.labels
        if not self.order:
            self.order = list(labels)
        if (not all(isinstance(l, str) for l in self.order)
                or sorted(self.order) != sorted(labels)):
            raise MalformedDiagram("order must be a permutation of the labels")
        rep = check_genericity(self.config)
        if not rep:
            raise DegenerateConfig(f"non-generic configuration: {rep.violations}")
        for l in labels:
            n = self.phi_dims.get(l)
            if n is None or n < 0:
                raise MalformedDiagram(f"missing or negative phi_dims[{l}]")
            mu = self.monodromies.get(l)
            if mu is None or not has_shape(mu, n, n):
                raise MalformedDiagram(f"monodromies[{l}] must be {n}x{n}")
            if det(mu) == 0:
                raise SingularMonodromy(f"monodromy at {l} is singular")
        for i in labels:
            for j in labels:
                if i == j:
                    continue
                t = self.transports.get((i, j))
                if t is None:
                    t = self.transports[(i, j)] = zeros(self.phi_dims[j],
                                                        self.phi_dims[i])
                if not has_shape(t, self.phi_dims[j], self.phi_dims[i]):
                    raise MalformedDiagram(
                        f"transports[{i}->{j}] must be "
                        f"{self.phi_dims[j]}x{self.phi_dims[i]}")

    def t(self, i: str, j: str) -> Matrix:
        return self.transports[(i, j)]

    def dim(self, l: str) -> int:
        return self.phi_dims[l]

    def copy(self) -> "MatrixDiagram":
        return MatrixDiagram(
            self.config, dict(self.phi_dims),
            {l: [row[:] for row in m] for l, m in self.monodromies.items()},
            {k: [row[:] for row in m] for k, m in self.transports.items()},
            list(self.order))

    def to_obj(self) -> dict:
        return {
            "points": self.config.to_obj()["points"],
            "order": list(self.order),
            "phi_dims": {l: self.phi_dims[l] for l in self.config.labels},
            "monodromies": {l: mat_to_obj(self.monodromies[l])
                            for l in self.config.labels},
            "transports": {
                f"{i}->{j}": mat_to_obj(t)
                for (i, j), t in sorted(self.transports.items())
                if any(x != 0 for row in t for x in row)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "MatrixDiagram":
        _require(obj, ("points", "phi_dims", "monodromies"), "matrix diagram")
        config = PointConfig.from_obj({"points": obj["points"]})
        for key in ("phi_dims", "monodromies"):
            _require(obj[key], config.labels, key)
        dims = {l: _dim(obj["phi_dims"][l], f"phi_dims[{l}]")
                for l in config.labels}
        mono = {l: mat_from_obj(obj["monodromies"][l], name=f"monodromies[{l}]")
                for l in config.labels}
        transports = obj.get("transports", {})
        _require(transports, (), "transports")
        trans = {}
        for key, m in transports.items():
            ends = key.split("->")
            if (len(ends) != 2 or ends[0] == ends[1]
                    or any(l not in config.coords for l in ends)):
                raise MalformedDiagram(f"transport key {key!r} is not "
                                       f"'i->j' for two distinct labels")
            i, j = ends
            trans[(i, j)] = mat_from_obj(m, name=f"transports[{key}]")
        order = obj.get("order", [])
        if not isinstance(order, list):
            raise MalformedDiagram("order must be a list of labels")
        return MatrixDiagram(config, dims, mono, trans, list(order))

    @staticmethod
    def from_json(text: str) -> "MatrixDiagram":
        return MatrixDiagram.from_obj(json.loads(text))


def gmv_to_matrix_diagram(g: GmvDiagram,
                          spider_order: Optional[Sequence[str]] = None
                          ) -> MatrixDiagram:
    """Rectilinear data induced by a GMV diagram: t_ij = a'_j a_i and
    mu_i = 1 - a'_i a_i, read in the given spider order."""
    rep = validate_gmv(g)
    if not rep.ok:
        raise InvalidGmv(f"monodromy factors are singular at: {rep.violations}")
    dims = g.phi_dims
    mono = {l: mat_sub(identity(dims[l]), mat_mul(g.a_prime[l], g.a[l], dims[l]))
            for l in g.config.labels}
    trans = {}
    for i in g.config.labels:
        for j in g.config.labels:
            if i != j:
                trans[(i, j)] = mat_mul(g.a_prime[j], g.a[i], dims[i])
    order = list(spider_order) if spider_order is not None else list(g.config.labels)
    return MatrixDiagram(g.config, dict(dims), mono, trans, order)


def realize_matrix_diagram(md: MatrixDiagram) -> GmvDiagram:
    """A canonical GMV diagram inducing the given rectilinear data, with
    Psi the direct sum of the Phi_i."""
    labels = md.config.labels
    dims = md.phi_dims
    offset, m = _block_layout(labels, dims)
    psi = identity(m)
    # a_i includes Phi_i as its block of Psi; a'_j is the row of blocks
    # (1 - mu_j on the diagonal, t_kj elsewhere) in label order
    a = {i: [row[offset[i]: offset[i] + dims[i]] for row in psi]
         for i in labels}
    ap: Dict[str, Matrix] = {}
    for j in labels:
        blocks = [mat_sub(identity(dims[j]), md.monodromies[j]) if k == j
                  else md.t(k, j) for k in labels]
        ap[j] = [[x for blk in blocks for x in blk[r]]
                 for r in range(dims[j])]
    return GmvDiagram(md.config, m, dict(dims), a, ap)


# -- transport along path words ----------------------------------------------------


@dataclass(frozen=True)
class Straight:
    src: str
    dst: str


@dataclass(frozen=True)
class Detour:
    src: str
    dst: str
    around: str
    side: str  # "left" or "right"


Move = Union[Straight, Detour]


@dataclass
class PathWord:
    source: str
    target: str
    moves: List[Move]


def _validate_path(md: MatrixDiagram, path: PathWord) -> None:
    labels = set(md.config.labels)
    if not path.moves:
        raise MalformedPath("empty move list")
    at = path.source
    for mv in path.moves:
        if mv.src != at:
            raise MalformedPath(f"move starts at {mv.src}, path is at {at}")
        if mv.src not in labels or mv.dst not in labels or mv.src == mv.dst:
            raise MalformedPath(f"bad endpoints {mv.src}->{mv.dst}")
        if isinstance(mv, Detour):
            if mv.around in (mv.src, mv.dst) or mv.around not in labels:
                raise MalformedPath(f"bad detour point {mv.around}")
            if mv.side not in ("left", "right"):
                raise MalformedPath(f"bad side {mv.side}")
        else:
            p, q = md.config.point(mv.src), md.config.point(mv.dst)
            for l in labels - {mv.src, mv.dst}:
                if on_segment(md.config.point(l), p, q):
                    raise MalformedPath(f"{l} blocks the segment "
                                        f"{mv.src}->{mv.dst}")
        at = mv.dst
    if at != path.target:
        raise MalformedPath(f"path ends at {at}, declared {path.target}")


def transport(md: MatrixDiagram, path: PathWord) -> Matrix:
    """Composite transport of the word, later moves acting on the left.

    Straight(k->l) is t_kl; a detour around p corrects it by the composite
    through p, +t_pl t_kp on the left and -t_pl t_kp on the right, so the two
    rewrites around the same point cancel exactly.
    """
    _validate_path(md, path)
    dims = md.phi_dims
    acc: Optional[Matrix] = None
    for mv in path.moves:
        k, l = mv.src, mv.dst
        step = [row[:] for row in md.t(k, l)]
        if isinstance(mv, Detour):
            p = mv.around
            corr = mat_mul(md.t(p, l), md.t(k, p), dims[k])
            step = (mat_add if mv.side == "left" else mat_sub)(step, corr)
        if acc is None:
            acc = step
        else:
            acc = mat_mul(step, acc, dims[path.source])
    return acc


# -- braid mutations ---------------------------------------------------------------


def braid_mutate(md: MatrixDiagram, k: int, inverse: bool = False
                 ) -> MatrixDiagram:
    """Apply sigma_k (or its inverse) to the spider order: strands k and k+1
    (1-based) swap, the strand passing behind picking up the correction
    through the other."""
    n = len(md.order)
    if not isinstance(k, int) or not 1 <= k < n:
        raise BadGenerator(f"sigma_{k} needs 1 <= k < {n}")
    out = md.copy()
    P, Q = md.order[k - 1], md.order[k]
    out.order[k - 1], out.order[k] = Q, P
    dims = md.phi_dims
    nP, nQ = dims[P], dims[Q]
    others = [l for l in md.config.labels if l not in (P, Q)]
    if not inverse:
        # the new t_PQ is also the left factor of each correction through P
        tPQ = mat_mul(md.t(P, Q), inverse_mu(md, P), nP)
        for i in others:
            corr = mat_mul(tPQ, md.t(i, P), dims[i])
            out.transports[(i, Q)] = mat_add(md.t(i, Q), corr)
        for j in others:
            corr = mat_mul(md.t(P, j), md.t(Q, P), nQ)
            out.transports[(Q, j)] = mat_sub(md.t(Q, j), corr)
        out.transports[(Q, P)] = mat_mul(md.monodromies[P], md.t(Q, P), nQ)
        out.transports[(P, Q)] = tPQ
    else:
        # the new t_PQ is also the right factor of each correction through Q
        tPQ = mat_mul(inverse_mu(md, Q), md.t(P, Q), nP)
        for i in others:
            corr = mat_mul(md.t(Q, P), md.t(i, Q), dims[i])
            out.transports[(i, P)] = mat_sub(md.t(i, P), corr)
        for j in others:
            corr = mat_mul(md.t(Q, j), tPQ, nP)
            out.transports[(P, j)] = mat_add(md.t(P, j), corr)
        out.transports[(P, Q)] = tPQ
        out.transports[(Q, P)] = mat_mul(md.t(Q, P), md.monodromies[Q], nQ)
    return out


def inverse_mu(md: MatrixDiagram, l: str) -> Matrix:
    return inverse(md.monodromies[l])


def braid_word(md: MatrixDiagram, word: Sequence[Tuple[int, bool]]
               ) -> MatrixDiagram:
    """Apply generators left to right; each item is (k, inverse)."""
    for k, inv in word:
        md = braid_mutate(md, k, inv)
    return md


# -- total monodromy ---------------------------------------------------------------


def total_monodromy(md: MatrixDiagram,
                    order: Optional[Sequence[str]] = None) -> Matrix:
    """Composite of the local monodromy contributions in the given order
    (the diagram's spider order by default), on the direct sum of the Phi_i
    in configuration label order."""
    labels = md.config.labels
    dims = md.phi_dims
    if order is None:
        order = md.order
    if sorted(order) != sorted(labels):
        raise ValueError("order must be a permutation of the labels")

    def local(i: str) -> Matrix:
        def block(src: str, tgt: str) -> Optional[Matrix]:
            if tgt != i:
                return None  # identity row elsewhere
            if src == i:
                return md.monodromies[i]
            t = md.t(src, i)
            return [[-x for x in row] for row in t]
        return block_matrix(labels, dims, block)

    # written left to right in spider order: T = L_{o_1} L_{o_2} ... L_{o_N};
    # this is the composite under which braid mutations act by conjugation
    total = identity(sum(dims[l] for l in labels))
    for l in reversed(order):
        total = mat_mul(local(l), total)
    return total


def monodromy_charpoly(md: MatrixDiagram,
                       order: Optional[Sequence[str]] = None) -> List[Fraction]:
    return charpoly(total_monodromy(md, order))
