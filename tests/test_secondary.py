import random
from fractions import Fraction

import pytest

from air.exactgeom import DegenerateConfig, PointConfig, normvol, convex_hull
from air.lp import LinearSystem
from air.secondary import (
    InvalidSubdivision,
    MarkedSubdivision,
    NotFlippable,
    NotRegular,
    _seed_triangulation,
    brute_force_triangulations,
    enumerate_subdivisions,
    enumerate_triangulations,
    face_factorization,
    flip,
    gkz_vector,
    is_regular,
    is_triangulation,
    lift_marked_subdivision,
    lift_subdivision,
    marked_is_regular,
    normalize_cell,
    regular_triangulations,
    secondary_face_lattice,
    secondary_polytope,
    validate_subdivision,
)
from conftest import random_generic_config, random_mixed_config

SQUARE = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 1, 1), ("d", 0, 1)])
TRI_P = PointConfig.of([("a", 0, 0), ("b", 4, 0), ("c", 0, 4), ("p", 1, 1)])
PENTAGON = PointConfig.of(
    [("a", 0, 0), ("b", 2, 0), ("c", 3, 2), ("d", 1, 4), ("e", -1, 2)]
)
# triangle inside a triangle: the two spiral triangulations are not regular
MOA = PointConfig.of(
    [("A", 0, 0), ("B", 4, 0), ("C", 0, 4), ("x", 1, 1), ("y", 2, 1), ("z", 1, 2)]
)

T_AC = (("a", "b", "c"), ("a", "c", "d"))
T_BD = (("a", "b", "d"), ("d", "b", "c"))
STAR = (("a", "b", "p"), ("a", "p", "c"), ("c", "p", "b"))


def test_normalize_cell_canonical_form():
    assert normalize_cell(SQUARE, ["c", "a", "d", "b"]) == ("a", "b", "c", "d")
    with pytest.raises(InvalidSubdivision):
        normalize_cell(SQUARE, ["a", "b"])
    with pytest.raises(InvalidSubdivision):
        normalize_cell(TRI_P, ["a", "b", "c", "p"])  # p is interior, not a vertex


def test_validate_subdivision_rejects_bad_tilings():
    validate_subdivision(SQUARE, [("a", "b", "c"), ("a", "c", "d")])
    with pytest.raises(InvalidSubdivision):
        validate_subdivision(SQUARE, [("a", "b", "c")])  # hole
    with pytest.raises(InvalidSubdivision):
        validate_subdivision(SQUARE, [("a", "b", "c"), ("a", "b", "d")])  # overlap
    with pytest.raises(InvalidSubdivision):
        validate_subdivision(SQUARE, [("a", "b", "c"), ("a", "c", "d"),
                                      ("a", "c", "d")])  # duplicate


def test_square_triangulations_and_gkz():
    ts = enumerate_triangulations(SQUARE)
    assert ts == [T_AC, T_BD]
    sp = secondary_polytope(SQUARE)
    assert sp.regular == [T_AC, T_BD]
    assert sp.gkz_vectors == [
        (Fraction(2), Fraction(1), Fraction(2), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(1), Fraction(2)),
    ]
    assert sp.dim == 1
    assert sp.edges == [(0, 1)]


def test_lift_square_diagonal():
    heights = {"a": 0, "b": 1, "c": 0, "d": 1}
    assert lift_subdivision(SQUARE, heights) == T_AC
    heights = {"a": 1, "b": 0, "c": 1, "d": 0}
    assert lift_subdivision(SQUARE, heights) == T_BD
    flat = lift_marked_subdivision(SQUARE, {l: 0 for l in SQUARE.labels})
    assert flat.cells == (("a", "b", "c", "d"),)
    assert flat.marks == (("a", "b", "c", "d"),)


def test_lift_flat_keeps_interior_point_marked():
    flat = lift_marked_subdivision(TRI_P, {l: 0 for l in TRI_P.labels})
    assert flat.cells == (("a", "b", "c"),)
    assert flat.marks == (("a", "b", "c", "p"),)


def test_flip_square():
    assert flip(SQUARE, T_AC, ("a", "c")) == T_BD
    assert flip(SQUARE, T_BD, ("b", "d")) == T_AC
    with pytest.raises(NotFlippable):
        flip(SQUARE, T_AC, ("a", "b"))  # hull edge
    with pytest.raises(NotFlippable):
        flip(SQUARE, T_AC, ("b", "d"))  # not an edge of this triangulation


def test_flip_rejects_nonconvex_quadrilateral():
    # around (a, p) the four points a, b, p, c do not form a convex quad
    with pytest.raises(NotFlippable):
        flip(TRI_P, STAR, ("a", "p"))


def test_interior_point_insertion_and_removal():
    ts = enumerate_triangulations(TRI_P)
    assert ts == [(("a", "b", "c"),), STAR]
    sp = secondary_polytope(TRI_P)
    assert sp.gkz_vectors == [
        (Fraction(16), Fraction(16), Fraction(16), Fraction(0)),
        (Fraction(8), Fraction(12), Fraction(12), Fraction(16)),
    ]
    assert sp.dim == 1
    assert sp.edges == [(0, 1)]


def test_catalan_counts_with_brute_force():
    gons = {
        4: [("p0", 0, 0), ("p1", 2, 0), ("p2", 3, 2), ("p3", 1, 3)],
        5: [("p0", 0, 0), ("p1", 2, 0), ("p2", 3, 2), ("p3", 1, 4), ("p4", -1, 2)],
        6: [("p0", 0, 0), ("p1", 3, 0), ("p2", 4, 2), ("p3", 3, 5), ("p4", 1, 5),
            ("p5", -1, 2)],
    }
    catalan = {4: 2, 5: 5, 6: 14}
    for n, items in gons.items():
        cfg = PointConfig.of(items)
        ts = enumerate_triangulations(cfg)
        assert len(ts) == catalan[n]
        assert ts == brute_force_triangulations(cfg)
        g = [gkz_vector(cfg, t) for t in ts]
        hull_vol = normvol([cfg.point(l) for l in convex_hull(cfg)])
        assert {sum(v) for v in g} == {3 * hull_vol}
        sp = secondary_polytope(cfg)
        assert len(sp.regular) == len(ts)  # convex position: all regular
        assert sp.dim == n - 3


def test_regularity_witness_round_trip():
    rng = random.Random(20)
    for _ in range(8):
        cfg = random_generic_config(rng, rng.randint(4, 6))
        for t in enumerate_triangulations(cfg):
            w = is_regular(cfg, t)
            if w:
                assert lift_subdivision(cfg, w.heights) == t


def test_spiral_triangulations_are_not_regular():
    ts = enumerate_triangulations(MOA)
    assert len(ts) == 18
    assert ts == brute_force_triangulations(MOA)
    non_regular = [t for t in ts if not is_regular(MOA, t)]
    assert len(non_regular) == 2
    # the two spirals use all six points and have no interior-point star
    for t in non_regular:
        assert len(t) == 7
        used = {l for c in t for l in c}
        assert used == set(MOA.labels)


def test_random_triangulations_bfs_equals_brute_force():
    rng = random.Random(21)
    for _ in range(6):
        cfg = random_generic_config(rng, rng.randint(4, 6))
        assert enumerate_triangulations(cfg) == brute_force_triangulations(cfg)


def _parabola_config(rng, n):
    # strictly convex position: distinct integer x on y = x^2
    xs = rng.sample(range(-12, 13), n)
    return PointConfig.of([(f"q{i}", x, x * x) for i, x in enumerate(xs)])


def test_placing_seed_and_the_flip_search_from_it():
    # n = 4..6 in convex and in general position, plus MOA
    rng = random.Random(23)
    cfgs = [MOA]
    for n in (4, 5, 6):
        cfgs += [_parabola_config(rng, n), random_generic_config(rng, n)]
    for cfg in cfgs:
        t = _seed_triangulation(cfg)
        assert validate_subdivision(cfg, t) == t
        assert is_triangulation(t)
        assert {l for c in t for l in c} == set(cfg.labels)
        assert is_regular(cfg, t)
        assert enumerate_triangulations(cfg) == brute_force_triangulations(cfg)


def test_flip_search_does_not_lift(monkeypatch):
    import air.secondary

    def refuse(*args):
        raise AssertionError("the flip search reached _lower_faces")
    monkeypatch.setattr(air.secondary, "_lower_faces", refuse)
    assert len(enumerate_triangulations(MOA)) == 18


@pytest.mark.parametrize("items, triple", [
    ([("a", 0, 0), ("b", 1, 0), ("c", 2, 0), ("d", 1, 2)], "'a', 'b', 'c'"),
    # collinear through the interior, away from every hull edge
    ([("A", 0, 0), ("B", 6, 0), ("C", 0, 6), ("x", 1, 1), ("y", 2, 2)],
     "'A', 'x', 'y'"),
])
def test_flip_search_rejects_a_collinear_triple(items, triple):
    # the brute-force enumerators make the same check as the flip search
    for enumerate_ in (enumerate_triangulations, brute_force_triangulations,
                       enumerate_subdivisions):
        with pytest.raises(DegenerateConfig, match=triple):
            enumerate_(PointConfig.of(items))


def test_enumerate_subdivisions_counts():
    assert len(enumerate_subdivisions(SQUARE)) == 3  # trivial + 2 triangulations
    assert len(enumerate_subdivisions(TRI_P)) == 2   # trivial + star
    assert len(enumerate_subdivisions(PENTAGON)) == 11  # 1 + 5 diagonals + 5
    # convex n-gons: the little Schroeder numbers
    rng = random.Random(24)
    for n, count in zip(range(3, 8), (1, 3, 11, 45, 197)):
        assert len(enumerate_subdivisions(_parabola_config(rng, n))) == count


def test_subdivisions_are_valid_distinct_and_contain_the_triangulations():
    rng = random.Random(25)
    cfgs = [MOA] + [random_generic_config(rng, n) for n in (4, 4, 5, 5, 6, 6)]
    for cfg in cfgs:
        subs = enumerate_subdivisions(cfg)
        assert all(validate_subdivision(cfg, s) == s for s in subs)
        assert len(set(subs)) == len(subs)
        assert [s for s in subs if is_triangulation(s)] == \
            enumerate_triangulations(cfg)


def test_marked_regularity():
    both = MarkedSubdivision((("a", "b", "c"),), (("a", "b", "c", "p"),))
    assert marked_is_regular(TRI_P, both)
    coarse = MarkedSubdivision((("a", "b", "c"),), (("a", "b", "c"),))
    w = marked_is_regular(TRI_P, coarse)
    assert w
    lifted = lift_marked_subdivision(TRI_P, w.heights)
    assert lifted == coarse
    with pytest.raises(InvalidSubdivision):
        marked_is_regular(TRI_P, MarkedSubdivision((("a", "b", "c"),), (("a", "b"),)))


def test_marked_regularity_needs_one_mark_set_per_cell():
    cells = validate_subdivision(SQUARE, T_AC)
    with pytest.raises(InvalidSubdivision, match="mark sets"):
        marked_is_regular(SQUARE, MarkedSubdivision(cells, (cells[0],)))


def test_marked_regularity_rejects_an_unknown_mark():
    msub = MarkedSubdivision((("a", "b", "c"),), (("a", "b", "c", "q"),))
    with pytest.raises(InvalidSubdivision, match="unknown"):
        marked_is_regular(TRI_P, msub)


def test_flip_rejects_an_edge_of_three_labels():
    with pytest.raises(NotFlippable):
        flip(SQUARE, T_AC, ("a", "b", "c"))


def test_face_lattice_pentagon():
    lat = secondary_face_lattice(PENTAGON)
    counts = {d: len(lat.faces_of_dim(d)) for d in range(3)}
    assert counts == {0: 5, 1: 5, 2: 1}
    assert lat.dim == 2
    top = lat.top()
    assert len(top.vertices) == 5
    for f in lat.faces_of_dim(1):
        facets = lat.facets_of(f)
        assert sorted(len(g.vertices) for g in facets) == [1, 1]


def test_face_lattice_matches_flip_edges():
    """The lattice reads its vertices off the regular marked subdivisions;
    the secondary polytope finds them by flips and is_regular."""
    seeded = [make(random.Random(seed), 3 + seed % 4)
              for seed in range(12)
              for make in (random_generic_config, random_mixed_config)]
    for cfg in [PENTAGON, TRI_P, MOA] + seeded:
        lat = secondary_face_lattice(cfg)
        sp = secondary_polytope(cfg)
        assert lat.regular == sp.regular
        lattice_edges = {f.vertices for f in lat.faces_of_dim(1)}
        assert lattice_edges == set(sp.edges)


def test_face_lattice_triangle_in_triangle():
    lat = secondary_face_lattice(MOA)
    counts = {d: len(lat.faces_of_dim(d)) for d in range(4)}
    assert counts == {0: 16, 1: 24, 2: 10, 3: 1}
    top = lat.top()
    euler = sum((-1) ** f.dim for f in lat.faces if f is not top)
    assert euler == 2  # boundary of a 3-polytope
    # facets drop dimension by exactly one
    for f in lat.faces:
        for g in lat.facets_of(f):
            assert g.dim == f.dim - 1


def _supports_face(gkz_vectors, vertex_ids):
    # exact feasibility: a functional that is constant on the face's vertices
    # and strictly larger on all others
    n = len(gkz_vectors[0])
    sys = LinearSystem(n + 1)
    inface = set(vertex_ids)
    for i, v in enumerate(gkz_vectors):
        row = list(v) + [Fraction(-1)]
        if i in inface:
            sys.add_eq(row, 0)
        else:
            sys.add_lt([-x for x in row], 0)
    return sys.feasible_point() is not None


def test_faces_are_supported_by_linear_functionals():
    for cfg in (PENTAGON, MOA):
        lat = secondary_face_lattice(cfg)
        for f in lat.faces:
            assert _supports_face(lat.gkz_vectors, f.vertices)


def test_marked_witnesses_lift_back():
    lat = secondary_face_lattice(MOA)
    for f in lat.faces:
        w = marked_is_regular(MOA, f.subdivision)
        assert w
        assert lift_marked_subdivision(MOA, w.heights) == f.subdivision


def test_face_factorization_pentagon_diagonal():
    ff = face_factorization(PENTAGON, [("a", "b", "c"), ("a", "c", "d", "e")])
    assert ff.factor_counts == [1, 2]
    assert len(ff.refinements) == 2
    assert ff.verified


def test_face_factorization_trivial_cell():
    ff = face_factorization(TRI_P, [("a", "b", "c")])
    assert ff.factor_counts == [2]
    assert len(ff.refinements) == 2
    assert ff.verified
    assert ff.factors[0].labels == TRI_P.labels


def test_face_factorization_requires_regular():
    spiral = next(t for t in enumerate_triangulations(MOA)
                  if not is_regular(MOA, t))
    with pytest.raises(NotRegular):
        face_factorization(MOA, spiral)


def test_face_factorization_random_coarse():
    rng = random.Random(23)
    done = 0
    while done < 4:
        cfg = random_generic_config(rng, rng.randint(4, 5))
        coarse = [s for s in enumerate_subdivisions(cfg)
                  if any(len(c) > 3 for c in s) and is_regular(cfg, s)]
        if not coarse:
            continue
        ff = face_factorization(cfg, rng.choice(coarse))
        assert ff.verified
        done += 1
