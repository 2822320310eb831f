"""The local regularity rows against the global cells x points system, and
the lower faces of a lift against a plane solve per base triple.

The oracle below is the textbook system: for every cell and every point, the
point's height against the cell's plane (through its first three vertices,
by a 3x3 solve) is an equality for points marked in the cell and an
inequality for all others, strict unless the point lies in the closed cell
and is unmarked in an unmarked subdivision.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from air.exactgeom import PointConfig, point_in_convex_polygon
from air.linalg import rank, solve
from air.lp import LinearSystem
from air.secondary import (
    MarkedSubdivision,
    _lower_faces,
    enumerate_marked_subdivisions,
    enumerate_subdivisions,
    enumerate_triangulations,
    is_regular,
    lift_marked_subdivision,
    lift_subdivision,
    marked_is_regular,
    secondary_face_lattice,
)
from conftest import random_generic_config

MOA = PointConfig.of(
    [("A", 0, 0), ("B", 4, 0), ("C", 0, 4), ("x", 1, 1), ("y", 2, 1), ("z", 1, 2)]
)


def _oracle(config, cells, marks, strict_inside):
    index = {l: i for i, l in enumerate(config.labels)}
    sys = LinearSystem(len(index))
    for cell, on_plane in zip(cells, marks):
        base = cell[:3]
        pts = [config.point(l) for l in base]
        m = [[p.x for p in pts], [p.y for p in pts], [Fraction(1)] * 3]
        poly = [config.point(l) for l in cell]
        for s in config.labels:
            if s in base:
                continue
            p = config.point(s)
            lam = solve(m, [p.x, p.y, Fraction(1)])
            row = [Fraction(0)] * len(index)
            for l, coeff in zip(base, lam):
                row[index[l]] += coeff
            row[index[s]] -= 1
            if s in on_plane:
                sys.add_eq(row, 0)
            elif point_in_convex_polygon(p, poly) > 0 and not strict_inside:
                sys.add_le(row, 0)
            else:
                sys.add_lt(row, 0)
    return sys.feasible_point() is not None


def _check_unmarked(config, cells):
    w = is_regular(config, cells)
    assert bool(w) == _oracle(config, cells, [set(c) for c in cells], False)
    if w:
        assert lift_subdivision(config, w.heights) == tuple(cells)
    return bool(w)


def _check_marked(config, msub):
    w = marked_is_regular(config, msub)
    assert bool(w) == _oracle(config, msub.cells, msub.mark_sets(), True)
    if w:
        assert lift_marked_subdivision(config, w.heights) == msub
    return bool(w)


def _seeded_configs(sizes, per_size):
    return [random_generic_config(random.Random(1000 * n + k), n)
            for n in sizes for k in range(per_size)]


def test_triangulations_agree_with_the_global_system():
    for cfg in _seeded_configs(range(4, 8), 3):
        for t in enumerate_triangulations(cfg):
            _check_unmarked(cfg, t)
    verdicts = [_check_unmarked(MOA, t) for t in enumerate_triangulations(MOA)]
    assert verdicts.count(False) == 2  # the two spirals


@pytest.mark.parametrize("config", _seeded_configs(range(4, 7), 3) + [MOA],
                         ids=[f"n{n}-{k}" for n in range(4, 7) for k in range(3)]
                         + ["MOA"])
def test_every_subdivision_agrees_with_the_global_system(config):
    for cells in enumerate_subdivisions(config):
        _check_unmarked(config, cells)
    verdicts = [_check_marked(config, msub)
                for msub in enumerate_marked_subdivisions(config)]
    assert verdicts.count(True) == len(secondary_face_lattice(config).faces)


def test_coarse_lifts_agree_with_the_global_system():
    rng = random.Random(31)
    for cfg in _seeded_configs((7,), 3):
        for _ in range(10):
            heights = {l: Fraction(rng.randint(0, 3)) for l in cfg.labels}
            msub = lift_marked_subdivision(cfg, heights)
            assert _check_unmarked(cfg, msub.cells)
            assert _check_marked(cfg, msub)


def test_a_point_on_an_interior_edge_marked_on_one_side_is_not_regular():
    # not generic: m lies on the diagonal ac, so both planes meet it
    square = PointConfig.of([("a", 0, 0), ("b", 2, 0), ("c", 2, 2), ("d", 0, 2),
                             ("m", 1, 1)])
    cells = (("a", "b", "c"), ("a", "c", "d"))
    one_side = MarkedSubdivision(cells, (("a", "b", "c", "m"), ("a", "c", "d")))
    assert not _check_marked(square, one_side)
    both = MarkedSubdivision(cells, (("a", "b", "c", "m"), ("a", "c", "d", "m")))
    assert _check_marked(square, both)
    assert _check_unmarked(square, cells)


def _oracle_lower_faces(config, heights):
    """The lower faces by a 3x3 solve per base triple: the plane through
    the lifted triple, kept when no lifted point lies below it."""
    labels = config.labels
    h = {l: Fraction(heights[l]) for l in labels}
    faces = set()
    for a, b, c in combinations(labels, 3):
        pa, pb, pc = config.point(a), config.point(b), config.point(c)
        m = [[pa.x, pa.y, Fraction(1)],
             [pb.x, pb.y, Fraction(1)],
             [pc.x, pc.y, Fraction(1)]]
        sol = solve(m, [h[a], h[b], h[c]])
        if sol is None or rank(m) < 3:  # collinear base triple
            continue
        ca, cb, cc = sol
        vals = {l: ca * config.point(l).x + cb * config.point(l).y + cc
                for l in labels}
        if any(h[l] < vals[l] for l in labels):
            continue
        faces.add(frozenset(l for l in labels if h[l] == vals[l]))
    return sorted(faces, key=sorted)


def test_lower_faces_agree_with_the_plane_solve():
    # not generic: m is the centre of the square, on both diagonals
    square = PointConfig.of([("a", 0, 0), ("b", 2, 0), ("c", 2, 2), ("d", 0, 2),
                             ("m", 1, 1)])
    rng = random.Random(47)
    for cfg in _seeded_configs(range(4, 8), 2) + [MOA, square]:
        for k in range(8):
            # small integer heights make many points coplanar
            heights = {l: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                       if k % 2 else Fraction(rng.randint(0, 2))
                       for l in cfg.labels}
            assert _lower_faces(cfg, heights) == \
                _oracle_lower_faces(cfg, heights)


def test_plane_rows_give_one_point_under_positive_scaling():
    # int plane rows, their Fraction copies and positive rational multiples
    # of each row describe the same system, and the solver must see one; each
    # row bounds the height of its own point, so every system is feasible
    from air.secondary import _plane_row
    for cfg in (MOA, random_generic_config(random.Random(7), 6)):
        g = cfg.grid
        index = {l: i for i, l in enumerate(cfg.labels)}
        for cell in combinations(cfg.labels, 3):
            rows = [(_plane_row(g, index, cell, s), k % 3 - 1, k % 2 == 1)
                    for k, s in enumerate(cfg.labels) if s not in cell]
            points = []
            for scale in (None, Fraction(1), Fraction(2, 3), Fraction(7)):
                sys = LinearSystem(len(index))
                for row, rhs, strict in rows:
                    if scale is not None:
                        row = [c * scale for c in row]
                        rhs = rhs * scale
                    (sys.add_lt if strict else sys.add_le)(row, rhs)
                points.append(sys.feasible_point())
            assert points[1:] == points[:-1]
            x = points[0]
            assert all(type(v) is Fraction for v in x)
            for row, rhs, strict in rows:
                val = sum(c * v for c, v in zip(row, x))
                assert val < rhs if strict else val <= rhs