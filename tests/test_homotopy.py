"""Chain complexes, the web CDGA, extended triangulations, infinite polygons."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from air.exactgeom import Direction, PointConfig, check_genericity, cross, \
    orient, sign, vsub
import air.homotopy
from air.homotopy import (
    AInfAlgebra,
    DegenerateConfig,
    FaceLatticeUnavailable,
    INF,
    SignInconsistency,
    _extended_at,
    _face_data,
    _far_bound,
    _far_point,
    _incidence_sign,
    _lattice_face_data,
    _product_sign,
    build_ainf,
    build_web_cdga,
    check_d_squared,
    check_stasheff,
    convex_chains,
    extended_triangulations,
    polyhedral_chain_complex,
)
from air.linalg import det, solve
from air.secondary import secondary_face_lattice

from conftest import random_generic_config, random_generic_zeta, \
    random_mixed_config

UP = Direction.of(0, 1)

SQUARE = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 1, 1), ("d", 0, 1)])
TRIANGLE = PointConfig.of([("a", 0, 0), ("b", 4, 0), ("c", 0, 4)])
TRI_P = PointConfig.of([("a", 0, 0), ("b", 4, 0), ("c", 0, 4), ("p", 1, 1)])
PENTAGON = PointConfig.of(
    [("a", 0, 0), ("b", 2, 0), ("c", 3, 2), ("d", 1, 4), ("e", -1, 2)])


# -- polyhedral chain complexes --------------------------------------------------

def test_square_chain_complex_is_a_segment():
    cc = polyhedral_chain_complex(SQUARE)
    assert cc.generators == [(0, 0), (1, 0), (2, 1)]
    assert cc.boundary[1] == [[Fraction(-1)], [Fraction(1)]]  # d(edge) = v2 - v1


def test_triangle_chain_complex_is_a_point():
    cc = polyhedral_chain_complex(TRIANGLE)
    assert cc.generators == [(0, 0)]
    assert cc.boundary == {}


def test_pentagon_chain_complex_counts_and_d_squared():
    cc = polyhedral_chain_complex(PENTAGON)
    by_degree = {}
    for _, d in cc.generators:
        by_degree[d] = by_degree.get(d, 0) + 1
    assert by_degree == {0: 5, 1: 5, 2: 1}
    # d^2 = 0 is verified by the constructor; recheck the matrix product
    from air.linalg import mat_mul
    sq = mat_mul(cc.boundary[1], cc.boundary[2])
    assert all(x == 0 for row in sq for x in row)


def test_chain_complex_accepts_prebuilt_lattice():
    lattice = secondary_face_lattice(PENTAGON)
    cc = polyhedral_chain_complex(lattice)
    assert cc.lattice is lattice


def test_chain_complex_rejects_large_and_wrong_input():
    big = PointConfig.of([(f"w{i}", i, i * i) for i in range(7)])
    with pytest.raises(FaceLatticeUnavailable):
        polyhedral_chain_complex(big)
    with pytest.raises(TypeError):
        polyhedral_chain_complex([("a", 0, 0)])


# -- web CDGA ---------------------------------------------------------------------

def test_two_point_cdga_single_generator():
    cdga = build_web_cdga(PointConfig.of([("a", 0, 0), ("b", 1, 0)]))
    assert len(cdga.generators) == 1
    g = cdga.generators[0]
    assert g.degree == 0 and g.labels == ("a", "b")
    assert cdga.differential[g.gid] == {}
    assert check_d_squared(cdga).ok


def test_three_point_cdga_generators():
    cdga = build_web_cdga(TRIANGLE)
    # three pairs plus the single vertex of the triple's secondary polytope
    assert sorted(g.name for g in cdga.generators) == \
        ["a,b", "a,b,c:f0", "a,c", "b,c"]
    assert all(cdga.differential[g.gid] == {} for g in cdga.generators)
    assert check_d_squared(cdga).ok


def test_square_cdga_top_differential_has_diagonal_products():
    cdga = build_web_cdga(SQUARE)
    names = {g.gid: g.name for g in cdga.generators}
    top = next(g for g in cdga.generators if g.is_top and len(g.labels) == 4)
    assert top.degree == 1  # the secondary polytope of a quadrilateral is a segment
    d = cdga.differential[top.gid]
    monos = {tuple(names[g] for g in m): c for m, c in d.items()}
    assert monos == {
        ("a,b,c:f0", "a,c,d:f0"): Fraction(-1),
        ("a,b,d:f0", "b,c,d:f0"): Fraction(1),
    }


def test_interior_point_cdga_top_differential():
    cdga = build_web_cdga(TRI_P)
    names = {g.gid: g.name for g in cdga.generators}
    top = next(g for g in cdga.generators if g.is_top and len(g.labels) == 4)
    d = cdga.differential[top.gid]
    terms = sorted((tuple(names[g] for g in m), c) for m, c in d.items())
    # one endpoint forgets p entirely, the other stars it
    assert terms == [
        (("a,b,c:f0",), Fraction(-1)),
        (("a,b,p:f0", "a,c,p:f0", "b,c,p:f0"), Fraction(1)),
    ]
    assert check_d_squared(cdga).ok


def test_cdga_differential_lowers_degree_by_one():
    for cfg in (SQUARE, TRI_P, PENTAGON):
        cdga = build_web_cdga(cfg)
        for g in cdga.generators:
            for mono in cdga.differential[g.gid]:
                assert sum(cdga.degree[x] for x in mono) == g.degree - 1


def test_pentagon_cdga_d_squared_diamond():
    cdga = build_web_cdga(PENTAGON)
    top = next(g for g in cdga.generators if g.is_top and len(g.labels) == 5)
    assert len(cdga.differential[top.gid]) == 5  # one term per coarse edge
    assert check_d_squared(cdga).ok


def test_corrupted_sign_is_reported():
    cdga = build_web_cdga(PENTAGON)
    top = next(g for g in cdga.generators if g.is_top and len(g.labels) == 5)
    d = cdga.differential[top.gid]
    mono = next(iter(d))
    d[mono] = -d[mono]
    rep = check_d_squared(cdga)
    assert not rep.ok
    assert rep.failing_generators == [top.name]


def test_empty_config_vacuously_ok():
    cdga = build_web_cdga(PointConfig.of([]))
    assert cdga.generators == []
    assert check_d_squared(cdga).ok


def test_cdga_rejects_degenerate_and_large_configs():
    with pytest.raises(DegenerateConfig):
        build_web_cdga(PointConfig.of([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)]))
    big = PointConfig.of([(f"w{i}", i, i * i) for i in range(7)])
    with pytest.raises(FaceLatticeUnavailable):
        build_web_cdga(big)


def test_cdga_json_is_deterministic():
    a = json.dumps(build_web_cdga(TRI_P).to_obj(), sort_keys=True)
    b = json.dumps(build_web_cdga(TRI_P).to_obj(), sort_keys=True)
    assert a == b
    assert "a,b,p:f0" in a


def test_random_configs_d_squared():
    rng = random.Random(11)
    for _ in range(8):
        cfg = random_generic_config(rng, rng.randint(2, 5))
        rep = check_d_squared(build_web_cdga(cfg))
        assert rep.ok, rep.failing_generators


# -- extended triangulations ------------------------------------------------------

def test_two_points_one_infinite_triangle():
    two = PointConfig.of([("a", -1, 0), ("b", 1, 0)])
    ext = extended_triangulations(two, UP)
    assert len(ext) == 1
    assert ext[0].infinite == ((INF, "a", "b"),)
    assert ext[0].finite == ()


def test_triangle_below_vertical_eta():
    # apex pointing away from eta: both hull paths are visible
    tri = PointConfig.of([("a", -2, 0), ("b", 2, 0), ("c", 0, -2)])
    ext = extended_triangulations(tri, UP)
    keys = sorted((e.infinite, e.finite) for e in ext)
    assert keys == [
        (((INF, "a", "b"),), (("a", "c", "b"),)),
        (((INF, "a", "c"), (INF, "c", "b")), ()),
    ]


def test_triangle_with_apex_toward_eta():
    # apex inside the extended hull: it may be skipped or starred
    tri = PointConfig.of([("a", -2, 0), ("b", 2, 0), ("c", 0, 2)])
    ext = extended_triangulations(tri, UP)
    keys = sorted((e.infinite, e.finite) for e in ext)
    assert keys == [
        (((INF, "a", "b"),), ()),
        (((INF, "a", "c"), (INF, "c", "b")), (("a", "b", "c"),)),
    ]


def test_infinite_cells_are_anticlockwise():
    tri = PointConfig.of([("a", -2, 0), ("b", 2, 0), ("c", 0, -2)])
    ext = extended_triangulations(tri, UP)
    fan = next(e for e in ext if len(e.infinite) == 2)
    assert fan.infinite == ((INF, "a", "c"), (INF, "c", "b"))


def test_extended_rejects_collinear_config():
    with pytest.raises(DegenerateConfig):
        extended_triangulations(
            PointConfig.of([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)]), UP)


# Web seed 9090, index 27: w4, w5 and M*eta are collinear at M = 354, and
# the extended triangulations at M = 152 and 304 differ from those at every
# M >= 392 = _far_bound.
W9090_27 = PointConfig.of([("w1", -12, 3), ("w2", 6, -5), ("w3", 11, 12),
                           ("w4", 16, -2), ("w5", 17, 20)])
DOWN = Direction.of(0, -3)


def _ext_parts(ext):
    return [(e.cells, e.infinite, e.finite) for e in ext]


def test_extended_triangulations_are_the_limit_ones():
    bound = _far_bound(W9090_27, DOWN)
    assert bound == 392
    far = _extended_at(W9090_27, DOWN, 1000 * bound)
    assert _ext_parts(extended_triangulations(W9090_27, DOWN)) == _ext_parts(far)


def test_far_bound_gives_every_far_orientation_its_limit_sign():
    rng = random.Random(31)
    for _ in range(30):
        cfg = random_generic_config(rng, rng.randint(2, 6))
        eta = Direction.of(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
        bound = _far_bound(cfg, eta)
        p = _far_point(eta, bound)
        for a, b in combinations(cfg.coords.values(), 2):
            limit = sign(cross(vsub(b, a), eta.vec()))
            if limit:
                assert orient(a, b, p) == limit
        ext = extended_triangulations(cfg, eta)
        far = _extended_at(cfg, eta, 1000 * bound)
        assert _ext_parts(ext) == _ext_parts(far)


def test_far_point_errors_are_typed():
    # a, b and the far point are collinear at every M
    line = PointConfig.of([("a", 0, 1), ("b", 0, 2), ("c", 1, 0)])
    with pytest.raises(DegenerateConfig, match=r"\['a', 'b', '∞'\]"):
        extended_triangulations(line, UP)
    for pts in ([], [("a", 0, 0)]):
        alg = build_ainf(PointConfig.of(pts), UP)
        assert alg.basis == [] and alg.m2 == {}
        assert check_stasheff(alg).ok


# -- convex chains and the algebra of infinite polygons ---------------------------

def test_convex_chains_on_an_arc_are_all_subsequences():
    arc = PointConfig.of([("a", 3, 0), ("b", 1, -2), ("c", -1, -2), ("d", -3, 0)])
    chains = set(convex_chains(arc, UP))
    expected = set()
    for r in range(2, 5):
        expected.update(combinations(("a", "b", "c", "d"), r))
    assert chains == expected


def test_convex_chains_reject_a_tied_eta():
    arc = PointConfig.of([("a", 3, 0), ("b", 1, -2), ("c", -1, -2), ("d", -3, 0)])
    with pytest.raises(DegenerateConfig):
        convex_chains(arc, Direction.of(1, 0))  # b, c tie under rho(eta)


def test_ainf_rejects_collinear_config():
    with pytest.raises(DegenerateConfig):
        build_ainf(PointConfig.of([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)]), UP)


def test_two_point_algebra_is_trivial():
    alg = build_ainf(PointConfig.of([("a", -1, 0), ("b", 1, 0)]), UP)
    assert alg.basis == [("b", "a")]
    assert alg.degrees == [0]
    assert alg.m2 == {}
    assert check_stasheff(alg).ok


def test_three_points_middle_below_chord_glue():
    cfg = PointConfig.of([("a", 2, 0), ("m", 0, -1), ("b", -2, 0)])
    alg = build_ainf(cfg, UP)
    table = {(alg.basis[i], alg.basis[j]): (alg.basis[k], c)
             for (i, j), (k, c) in alg.m2.items()}
    assert table == {(("a", "m"), ("m", "b")): (("a", "m", "b"), Fraction(1))}
    assert check_stasheff(alg).ok


def test_three_points_middle_above_chord_no_glue():
    cfg = PointConfig.of([("a", 2, 0), ("m", 0, 1), ("b", -2, 0)])
    alg = build_ainf(cfg, UP)
    assert alg.basis == [("a", "m"), ("a", "b"), ("m", "b")]
    assert alg.m2 == {}


def test_arc_algebra_structure():
    arc = PointConfig.of([("a", 3, 0), ("b", 1, -2), ("c", -1, -2), ("d", -3, 0)])
    alg = build_ainf(arc, UP)
    assert len(alg.basis) == 11
    assert alg.degrees == [len(c) - 2 for c in alg.basis]
    gluings = {(alg.basis[i], alg.basis[j]): alg.basis[k]
               for (i, j), (k, _) in alg.m2.items()}
    assert gluings == {
        (("a", "b"), ("b", "c")): ("a", "b", "c"),
        (("a", "b"), ("b", "d")): ("a", "b", "d"),
        (("a", "c"), ("c", "d")): ("a", "c", "d"),
        (("b", "c"), ("c", "d")): ("b", "c", "d"),
        (("a", "b"), ("b", "c", "d")): ("a", "b", "c", "d"),
        (("a", "b", "c"), ("c", "d")): ("a", "b", "c", "d"),
    }
    assert all(c in (1, -1) for _, c in alg.m2.values())
    assert check_stasheff(alg, max_arity=4).ok


def test_ainf_builds_each_far_polygon_once_per_M(monkeypatch):
    import air.homotopy
    arc = PointConfig.of([(l, x, x * x) for l, x in zip("abcde", (2, 1, 0, -1, -2))])
    real = air.homotopy.enumerate_triangulations
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)
    monkeypatch.setattr(air.homotopy, "enumerate_triangulations", counted)
    alg = build_ainf(arc, UP)
    assert (len(alg.basis), len(alg.m2)) == (26, 23)
    # one flip search per chain; the recheck at 2M reuses its triangulations
    assert len(calls) == len(alg.basis)


def test_higher_products_are_zero():
    arc = PointConfig.of([("a", 3, 0), ("b", 1, -2), ("c", -1, -2), ("d", -3, 0)])
    alg = build_ainf(arc, UP)
    assert alg.m(3, (0, 0, 0)) == {}
    assert alg.m(4, (0, 0, 0, 0)) == {}
    with pytest.raises(ValueError):
        check_stasheff(alg, max_arity=5)


def test_corrupted_m2_is_reported_with_offending_tuple():
    arc = PointConfig.of([("a", 3, 0), ("b", 1, -2), ("c", -1, -2), ("d", -3, 0)])
    alg = build_ainf(arc, UP)
    key = next(k for k in alg.m2 if len(alg.basis[k[0]]) == 2
               and len(alg.basis[k[1]]) == 2)
    k, c = alg.m2[key]
    alg.m2[key] = (k, -c)
    rep = check_stasheff(alg)
    assert not rep.ok
    x, y = key
    assert any(t[:2] == (x, y) or t[1:] == (x, y) for _, t in rep.failures)


def test_ainf_json_is_deterministic():
    arc = PointConfig.of([("a", 3, 0), ("b", 1, -2), ("c", -1, -2), ("d", -3, 0)])
    a = json.dumps(build_ainf(arc, UP).to_obj(), sort_keys=True)
    b = json.dumps(build_ainf(arc, UP).to_obj(), sort_keys=True)
    assert a == b
    assert "a-b-c" in a


def test_random_configs_stasheff():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(2, 5)
        while True:
            cfg = random_generic_config(rng, n)
            zx, zy = rng.randint(-5, 5), rng.randint(-5, 5)
            if (zx, zy) != (0, 0) and check_genericity(cfg, zeta=(zx, zy)):
                break
        alg = build_ainf(cfg, Direction.of(zx, zy))
        rep = check_stasheff(alg)
        assert rep.ok, rep.failures


# -- check_stasheff against the dense triple loop ---------------------------------


def _dense_stasheff_failures(alg):
    """The arity-3 check over all n^3 basis triples, as first written."""
    failures = []
    n = len(alg.basis)
    for x in range(n):
        sx = -1 if alg.degrees[x] % 2 else 1
        for y in range(n):
            xy = alg.m(2, (x, y))
            for z in range(n):
                acc = {}
                for k, c in xy.items():
                    for k2, c2 in alg.m(2, (k, z)).items():
                        acc[k2] = acc.get(k2, Fraction(0)) + c * c2
                for k, c in alg.m(2, (y, z)).items():
                    for k2, c2 in alg.m(2, (x, k)).items():
                        acc[k2] = acc.get(k2, Fraction(0)) + sx * c * c2
                if any(v != 0 for v in acc.values()):
                    failures.append((3, (x, y, z)))
    return failures


def _seeded_algebras():
    arc = PointConfig.of([(l, x, x * x) for l, x in zip("abcde", (2, 1, 0, -1, -2))])
    out = [build_ainf(arc, UP)]
    rng = random.Random(29)
    while len(out) < 4:
        cfg = random_generic_config(rng, 5)
        alg = build_ainf(cfg, random_generic_zeta(rng, cfg))
        if alg.m2:
            out.append(alg)
    return out


def test_sparse_stasheff_matches_the_dense_loop_under_corruption():
    rng = random.Random(41)
    corrupted = 0
    for alg in _seeded_algebras():
        clean = dict(alg.m2)
        n = len(alg.basis)
        assert check_stasheff(alg).failures == _dense_stasheff_failures(alg) == []
        for _ in range(2):
            key = rng.choice(sorted(clean))
            k, c = clean[key]
            free = [(i, j) for i in range(n) for j in range(n)
                    if (i, j) not in clean]
            for kind in ("flip", "retarget", "delete", "add"):
                alg.m2 = dict(clean)
                if kind == "flip":
                    alg.m2[key] = (k, -c)
                elif kind == "retarget":
                    alg.m2[key] = (rng.choice([t for t in range(n) if t != k]), c)
                elif kind == "delete":
                    del alg.m2[key]
                else:
                    alg.m2[rng.choice(free)] = (rng.randrange(n), Fraction(1))
                rep = check_stasheff(alg)
                assert rep.failures == _dense_stasheff_failures(alg), kind
                assert rep.ok == (not rep.failures)
                corrupted += not rep.ok
        alg.m2 = clean
    assert corrupted > 10  # a corruption that meets no other product is unseen


# -- orientation signs against the Fraction path ------------------------------------
#
# The signs used to come from Fraction GKZ vectors: a solve per column for the
# coordinates in the face's basis, then one determinant, with the outward
# vector taken between barycenters.  That path is kept here as the oracle.


def _fraction_face(vertex_ids, gkz):
    vs = tuple(vertex_ids)
    g = [tuple(Fraction(x) for x in gkz[i]) for i in vs]
    basis = []
    for v in g[1:]:  # greedy independent differences, in order
        d = [x - y for x, y in zip(v, g[0])]
        if solve([list(r) for r in zip(*basis)] if basis else [[]] * len(d),
                 d) is None:
            basis.append(tuple(d))
    bary = tuple(sum(col) / len(g) for col in zip(*g))
    return basis, bary


def _fraction_coords(basis, v):
    x = solve([[b[i] for b in basis] for i in range(len(v))], list(v))
    if x is None:
        raise SignInconsistency("vector does not lie in the face's span")
    return x


def _fraction_sign(basis, cols):
    cols = [_fraction_coords(basis, c) for c in cols]
    if len(cols) != len(basis):
        raise SignInconsistency("dimension mismatch")
    if not cols:
        return 1
    d = det([list(r) for r in zip(*cols)])
    if d == 0:
        raise SignInconsistency("degenerate orientation comparison")
    return 1 if d > 0 else -1


def _fraction_incidence_sign(face, facet):
    (basis, bary), (fbasis, fbary) = face, facet
    return _fraction_sign(basis, [tuple(b - a for a, b in zip(bary, fbary))]
                          + fbasis)


def _fraction_product_sign(facet, labels, pieces):
    index = {l: i for i, l in enumerate(labels)}
    cols = []
    for piece_labels, (basis, _) in pieces:
        for b in basis:
            ext = [Fraction(0)] * len(labels)
            for l, x in zip(piece_labels, b):
                ext[index[l]] = x
            cols.append(ext)
    return _fraction_sign(facet[0], cols)


def _fraction_copy(data):
    """The Fraction path's face data for integer face data: its vectors read
    as Fractions, a positive multiple of the volumes."""
    return _fraction_face(range(len(data.gkz)), data.gkz)


def test_incidence_signs_match_the_fraction_path_on_seeded_lattices():
    compared = 0
    for n in (3, 4, 5, 6):
        for seed in (1, 2):
            lattice = secondary_face_lattice(
                random_generic_config(random.Random(100 * n + seed), n))
            old = [_fraction_face(f.vertices, lattice.gkz_vectors)
                   for f in lattice.faces]
            new = _lattice_face_data(lattice)
            for i, facets in enumerate(new.facets):
                for j, eps in facets:
                    assert eps == _fraction_incidence_sign(old[i], old[j])
                    compared += 1
    assert compared > 200


def test_crafted_faces_raise_each_sign_inconsistency():
    vecs = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 0, 0)]
    edge = _face_data([0, 1], vecs)
    # the outward step from the edge to (0, 1, 0) leaves its line
    with pytest.raises(SignInconsistency, match="span"):
        _incidence_sign(edge, _face_data([2], vecs))
    # a face against itself: two columns in a one-dimensional face
    with pytest.raises(SignInconsistency, match="mismatch"):
        _incidence_sign(edge, edge)
    # the midpoint of the segment from 0 to 2: no outward step
    with pytest.raises(SignInconsistency, match="degenerate"):
        _incidence_sign(_face_data([0, 3], vecs), _face_data([4], vecs))
    with pytest.raises(SignInconsistency, match="does not span"):
        _product_sign(edge, ("a", "b", "c"), [])
    with pytest.raises(SignInconsistency, match="span"):
        _product_sign(edge, ("a", "b", "c"),
                      [(("b", "c"), _face_data([0, 1], [(0, 0), (0, 1)]))])


# -- golden outputs and a scaling metamorphic check -----------------------------------


def _golden_inputs():
    rng = random.Random(1818)
    cfgs = [random_generic_config(random.Random(s), n)
            for s, n in ((5, 4), (6, 5), (7, 5))]
    cfgs += [random_mixed_config(rng, n) for n in (4, 5, 5)]
    out = [(cfg, random_generic_zeta(rng, cfg)) for cfg in cfgs]
    # a convex arc in thirds and sevenths: 26 chains, 23 products
    arc = PointConfig.of([(l, Fraction(x, 3), Fraction(x * x, 7))
                          for l, x in zip("abcde", (2, 1, 0, -1, -2))])
    return out + [(arc, UP)]


def _digests(cfg, eta):
    return tuple(hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
                 for obj in (build_web_cdga(cfg).to_obj(),
                             build_ainf(cfg, eta).to_obj()))


# sha256 of the sorted-key JSON of build_web_cdga(cfg).to_obj() and
# build_ainf(cfg, eta).to_obj() per golden input, recorded on the Fraction
# implementation of the signs
GOLDEN = [
    ("39a98d58c4f9052f222d4160acf9ec84ebfdc88365990d3086017d98bc6922e8",
     "6e6176a67311d59382b50477366e781e5beaa21cc5015844729d01024d47b570"),
    ("782055c023acada7c2b1646a504032b02179347402c0cdcc83e16cd46c2caade",
     "16cae8379afaa7ae73ef353e95321439dd79bfaf5da84187732a78ef8ae4aa3a"),
    ("47fff3153b933edf147970507ea15022182813d05c0b396abd841ff807fa3a7f",
     "b83629f5b82db0ec8f093bffc3be4f452c4874c47005a5a63d12157651a1bc43"),
    ("5baf03e1c40e09b147421938ec45e3c31d0b2d6264efc294fb74eabc5a33e87c",
     "7a593d25407f0b9ce91223a30dc4fb55ad9e642c05a5da8d1f938d7888323eb7"),
    ("b0e7400f832ff8e44dbd1c6ad68947228c2891be74796cc671484258e7b68180",
     "1d5a295e1f1897277ed6a65291315382153556b43d0738142d54b5ed37b8985f"),
    ("ed84861deead0f437dc411fbc58bec8e2b800e6cd2f31c0116c5e4dcee4a9c69",
     "a48f1f24b9952ed5a155250f69dae8033f3f5abcb91d8260bc41a64d8b411914"),
    ("a9c0ee2b37bafa518aa0e15c60bab7bb5a4da041abbcf78d11a6bf66c2d2d6fb",
     "3f393a46ad0a69cb646de1d647b58e03ab549e95df1e36b6c91aea7d73b99775"),
]


def test_golden_outputs_with_signs_checked_on_the_fraction_path(monkeypatch):
    calls = {"incidence": 0, "product": 0}

    def incidence(face, facet):
        got = _incidence_sign(face, facet)
        assert got == _fraction_incidence_sign(_fraction_copy(face),
                                               _fraction_copy(facet))
        calls["incidence"] += 1
        return got

    def product(facet, labels, pieces):
        got = _product_sign(facet, labels, pieces)
        assert got == _fraction_product_sign(
            _fraction_copy(facet), labels,
            [(l, _fraction_copy(p)) for l, p in pieces])
        calls["product"] += 1
        return got

    monkeypatch.setattr(air.homotopy, "_incidence_sign", incidence)
    monkeypatch.setattr(air.homotopy, "_product_sign", product)
    assert [_digests(cfg, eta) for cfg, eta in _golden_inputs()] == GOLDEN
    build_web_cdga(random_generic_config(random.Random(601), 6))
    assert calls["incidence"] > 200 and calls["product"] > 100


def test_positive_scaling_keeps_both_outputs():
    # every sign is a determinant sign, and scaling by k multiplies each
    # polytope's GKZ vectors by k**2 > 0
    k = Fraction(3, 7)
    scaled = [(PointConfig.of([(l, cfg.point(l).x * k, cfg.point(l).y * k)
                               for l in cfg.labels]), eta)
              for cfg, eta in _golden_inputs()]
    assert [_digests(cfg, eta) for cfg, eta in scaled] == GOLDEN
