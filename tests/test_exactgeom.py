import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import deadline

from air.exactgeom import (
    MAX_EXPONENT,
    Direction,
    GeometryError,
    Point,
    PointConfig,
    angle_less,
    angle_sorted,
    check_genericity,
    convex_hull,
    format_rational,
    normvol,
    on_segment,
    orient,
    parse_rational,
    point_in_convex_polygon,
    polygon_area2,
    pt,
    rho,
    segments_cross,
    vsub,
)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(parse_rational("6/8")) == "3/4"
    assert format_rational(Fraction(-7)) == "-7"
    with pytest.raises(GeometryError):
        parse_rational("1/0")
    with pytest.raises(GeometryError):
        parse_rational("x")


def _fraction_or_error(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return GeometryError


_DIGITS = st.text(st.sampled_from("0123456789\u0663\u0969"), min_size=1,
                  max_size=4)
_CANONICAL = st.builds(lambda sign, n, d: f"{sign}{n}" + (f"/{d}" if d else ""),
                       st.sampled_from(["", "-"]), st.integers(0, 10**30),
                       st.one_of(st.none(), st.integers(1, 10**30)))
_DECIMAL = st.builds(
    lambda sp, sign, n, frac, e: f"{sp}{sign}{n}{frac}{e}{sp}",
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "-", "+"]),
    _DIGITS, st.sampled_from(["", ".", ".5", ".0_1", "/7", "/0", "/00"]),
    st.one_of(st.just(""), st.builds(
        lambda e, sign, k: f"{e}{sign}{k}", st.sampled_from("eE"),
        st.sampled_from(["", "-", "+"]), st.integers(0, MAX_EXPONENT))))
_SCRAMBLED = st.lists(st.sampled_from(["0", "1", "7", "\u0663", "-", "+", "/",
                                       " ", ".", "e", "E", "_", "x", "\u00b2"]),
                      max_size=6).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_CANONICAL, _DECIMAL, _SCRAMBLED))
@example(text="-0")
@example(text="007/010")
@example(text="3/0")
@example(text="1_000")
@example(text="\u0661\u0662/\u0663")
@example(text="\u00b2")
@example(text="-/2")
@example(text="1" * 4301)
@example(text="-" + "9" * 5000 + "/7")
@example(text="1/" + "3" * 4301)
def test_parse_rational_agrees_with_fraction(text):
    """The int reader of the canonical forms and the Fraction fallback
    accept the same strings, with the same values."""
    want = _fraction_or_error(text)
    m = re.search(r"[eE]([-+]?\d+(?:_\d+)*)$", text.strip())
    if m and abs(int(m.group(1))) > MAX_EXPONENT:
        want = GeometryError
    if want is GeometryError:
        with pytest.raises(GeometryError):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("text", ["1e10000000", "1E-10000000", "-7.5e+99999",
                                  f"1e{MAX_EXPONENT + 1}", "2e1_000_000"])
def test_parse_rational_bounds_the_exponent(text):
    with deadline(2):
        with pytest.raises(GeometryError, match="exponent"):
            parse_rational(text)


def test_parse_rational_takes_exponents_up_to_the_bound():
    assert parse_rational(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
    assert parse_rational(f"3e-{MAX_EXPONENT}") == Fraction(3, 10 ** MAX_EXPONENT)


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_refuses_booleans(value):
    with pytest.raises(GeometryError):
        parse_rational(value)
    with pytest.raises(GeometryError):
        pt(value, 0)


@pytest.mark.parametrize("points", [{}, "", 0, None, {"label": "a"}])
def test_points_that_are_not_a_list_are_refused(points):
    with pytest.raises(GeometryError, match="points"):
        PointConfig.from_obj({"points": points})


def test_orient_signs():
    a, b = pt(0, 0), pt(2, 0)
    assert orient(a, b, pt(1, 1)) == 1
    assert orient(a, b, pt(1, -1)) == -1
    assert orient(a, b, pt(7, 0)) == 0
    assert orient(pt("1/3", "1/2"), pt("2/3", 1), pt(1, "3/2")) == 0
    assert orient(pt("-1/3", 0), pt(0, "1/7"), pt(0, "1/6")) == 1


def test_orient_refuses_float_coordinates():
    with pytest.raises(AttributeError):
        orient(pt(0, 0), pt(1, 0), Point(Fraction(1), 0.5))


def test_rho_is_quarter_turn():
    assert rho((Fraction(1), Fraction(0))) == (Fraction(0), Fraction(1))
    assert rho((Fraction(0), Fraction(1))) == (Fraction(-1), Fraction(0))
    with pytest.raises(GeometryError):
        rho((Fraction(0), Fraction(0)))


def test_direction_normalizes_to_primitive_vector():
    assert Direction.of(4, 6) == Direction(2, 3)
    assert Direction.of("1/2", "3/4") == Direction(2, 3)
    assert Direction.of(-4, 0) == Direction(-1, 0)
    assert Direction.of(2, 3).opposite() == Direction(-2, -3)
    assert str(Direction.of(10, -15)) == "2,-3"
    assert Direction.between(pt(1, 1), pt(3, 5)) == Direction(1, 2)
    with pytest.raises(GeometryError):
        Direction.of(0, 0)


def test_angle_order_counterclockwise_from_positive_x():
    vecs = [(1, 0), (2, 1), (0, 1), (-1, 1), (-1, 0), (-1, -2), (0, -1), (1, -1)]
    vecs = [(Fraction(a), Fraction(b)) for a, b in vecs]
    for u, v in zip(vecs, vecs[1:]):
        assert angle_less(u, v)
        assert not angle_less(v, u)
    shuffled = list(enumerate(vecs))
    random.Random(7).shuffle(shuffled)
    ordered = angle_sorted((v, i) for i, v in shuffled)
    assert [i for _, i in ordered] == list(range(len(vecs)))
    # scaling does not affect the order
    assert not angle_less((Fraction(2), Fraction(2)), (Fraction(5), Fraction(5)))


def test_convex_hull_square_with_interior_point():
    cfg = PointConfig.of(
        [("a", 0, 0), ("b", 2, 0), ("c", 2, 2), ("d", 0, 2), ("m", 1, 1)]
    )
    assert convex_hull(cfg) == ["a", "b", "c", "d"]


def test_convex_hull_collinear_and_tiny():
    line = PointConfig.of([("a", 0, 0), ("b", 1, 1), ("c", 3, 3)])
    assert convex_hull(line) == ["a", "c"]
    assert convex_hull(PointConfig.of([("z", 5, 5)])) == ["z"]


def test_convex_hull_drops_edge_midpoints():
    cfg = PointConfig.of([("a", 0, 0), ("b", 4, 0), ("m", 2, 0), ("c", 0, 3)])
    assert convex_hull(cfg) == ["a", "b", "c"]


def test_point_in_convex_polygon():
    sq = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
    assert point_in_convex_polygon(pt(1, 1), sq) == 2
    assert point_in_convex_polygon(pt(1, 0), sq) == 1
    assert point_in_convex_polygon(pt(2, 2), sq) == 1
    assert point_in_convex_polygon(pt(3, 1), sq) == 0


def test_segments_cross():
    assert segments_cross(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    # shared endpoint only
    assert not segments_cross(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0))
    # T-junction: endpoint interior to the other segment
    assert segments_cross(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 5))
    # collinear overlap vs collinear touch
    assert segments_cross(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))
    assert not segments_cross(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0))
    assert not segments_cross(pt(0, 0), pt(1, 1), pt(2, 0), pt(3, -1))


def test_area_and_normalized_volume():
    tri = [pt(0, 0), pt(1, 0), pt(0, 1)]
    assert polygon_area2(tri) == 1
    assert normvol(tri) == 1
    assert polygon_area2(list(reversed(tri))) == -1
    sq = [pt(0, 0), pt(3, 0), pt(3, 2), pt(0, 2)]
    assert normvol(sq) == 12


def test_config_validation_and_json_round_trip():
    cfg = PointConfig.of([("p", "1/2", 0), ("q", 3, "-2/5")])
    again = PointConfig.from_json(cfg.to_json())
    assert again.labels == cfg.labels
    assert again.coords == cfg.coords
    with pytest.raises(GeometryError):
        PointConfig.of([("p", 0, 0), ("p", 1, 1)])
    with pytest.raises(GeometryError):
        PointConfig.of([("p", 0, 0), ("q", 0, 0)])
    with pytest.raises(GeometryError):
        PointConfig.from_obj({"points": [{"label": "p", "x": "1"}]})


def test_subconfig_keeps_order():
    cfg = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 0, 1), ("d", 2, 2)])
    sub = cfg.subconfig(["d", "a", "c"])
    assert sub.labels == ["a", "c", "d"]
    with pytest.raises(GeometryError):
        cfg.subconfig(["nope"])


def test_genericity_flags_collinear_triples():
    bad = PointConfig.of([("a", 0, 0), ("b", 1, 1), ("c", 2, 2), ("d", 5, 0)])
    rep = check_genericity(bad)
    assert not rep
    assert ("collinear", "a", "b", "c") in rep.violations


def test_genericity_flags_differences_parallel_to_zeta():
    cfg = PointConfig.of([("a", 0, 0), ("b", 2, 1), ("c", 1, 3)])
    assert check_genericity(cfg, zeta=(Fraction(0), Fraction(1)))
    rep = check_genericity(cfg, zeta=(Fraction(2), Fraction(1)))
    assert not rep
    assert ("zeta_parallel_difference", "a", "b") in rep.violations


def test_collinear_triples_are_scanned_once_per_configuration(monkeypatch):
    import air.exactgeom as exactgeom
    cfg = PointConfig.of([("a", 0, 0), ("b", 4, 0), ("c", 1, 3), ("d", 3, 2)])
    calls = []
    real = exactgeom.orient

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(exactgeom, "orient", counted)
    assert check_genericity(cfg)
    assert len(calls) == 4  # the C(4, 3) triples
    assert check_genericity(cfg, zeta=(Fraction(1), Fraction(5)))
    assert check_genericity(cfg)
    assert len(calls) == 4
    # a derived value: no part of equality or repr
    assert cfg == PointConfig.of([("a", 0, 0), ("b", 4, 0), ("c", 1, 3),
                                  ("d", 3, 2)])
    assert "collinear" not in repr(cfg)
    # a point added after the check is checked with the others
    for front, triple in ((False, ("a", "b", "e")), (True, ("e", "a", "b"))):
        more = cfg.with_point("e", pt(2, 0), front=front)
        assert check_genericity(more).violations == [("collinear",) + triple]
        assert not check_genericity(more.subconfig(["a", "b", "e"]))
    assert check_genericity(cfg)


def test_genericity_on_random_perturbed_grids():
    rng = random.Random(42)
    for _ in range(20):
        # spread points on a fine grid; collinearity is then rare but possible,
        # and the report must agree with a direct orientation scan
        items = []
        used = set()
        while len(items) < 5:
            p = (rng.randint(-8, 8), rng.randint(-8, 8))
            if p not in used:
                used.add(p)
                items.append((f"p{len(items)}", p[0], p[1]))
        cfg = PointConfig.of(items)
        rep = check_genericity(cfg)
        triples = [
            (a, b, c)
            for i, a in enumerate(cfg.labels)
            for j, b in enumerate(cfg.labels)
            for k, c in enumerate(cfg.labels)
            if i < j < k and orient(cfg.point(a), cfg.point(b), cfg.point(c)) == 0
        ]
        assert rep.ok == (not triples)


def test_on_segment_strictness():
    a, b = pt(0, 0), pt(4, 2)
    assert on_segment(pt(2, 1), a, b)
    assert on_segment(pt(2, 1), a, b, strict=True)
    assert on_segment(a, a, b)
    assert not on_segment(a, a, b, strict=True)
    assert not on_segment(pt(6, 3), a, b)


def test_vsub_points_from_second_to_first():
    assert vsub(pt(3, 4), pt(1, 1)) == (Fraction(2), Fraction(3))
