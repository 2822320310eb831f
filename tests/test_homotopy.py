"""Chain complexes, the web CDGA, extended triangulations, infinite polygons."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from air.exactgeom import Direction, PointConfig, check_genericity, cross, \
    orient, sign, vsub
from air.homotopy import (
    AInfAlgebra,
    DegenerateConfig,
    FaceLatticeUnavailable,
    INF,
    _extended_at,
    _far_bound,
    _far_point,
    build_ainf,
    build_web_cdga,
    check_d_squared,
    check_stasheff,
    convex_chains,
    extended_triangulations,
    polyhedral_chain_complex,
)
from air.secondary import secondary_face_lattice

from conftest import random_generic_config

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
