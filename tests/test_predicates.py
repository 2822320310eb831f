"""Property tests for the exact sign predicate against its definition."""

from fractions import Fraction

import pytest

from air.exactgeom import Point, cross, orient, sign, vsub

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# negative numerators and denominators up to 10^6
rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 6)
points = st.builds(Point, rationals, rationals)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(p=points, q=points, r=points, t=rationals,
                  collinear=st.booleans())
def test_orient_is_the_sign_of_the_fraction_cross_product(p, q, r, t,
                                                           collinear):
    if collinear:  # r on the line through p and q, built on purpose
        r = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    expected = sign(cross(vsub(q, p), vsub(r, p)))
    if collinear:
        assert expected == 0
    assert orient(p, q, r) == expected
    assert orient(q, r, p) == expected
    assert orient(q, p, r) == -expected


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(p=points, q=points, r=points,
                  w=st.fractions(min_value=Fraction(1, 10 ** 6),
                                 max_value=10 ** 6))
def test_orient_is_invariant_under_positive_scaling(p, q, r, w):
    def scaled(a):
        return Point(a.x * w, a.y * w)
    assert orient(scaled(p), scaled(q), scaled(r)) == orient(p, q, r)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(a=points, b=points, c=points)
def test_a_right_turn_at_b_is_a_clockwise_triple(a, b, c):
    # cross(b - a, c - b) = cross(b - a, c - a): the turn test is orient
    assert (orient(a, b, c) < 0) == (cross(vsub(b, a), vsub(c, b)) < 0)
    assert orient(a, b, c) == sign(cross(vsub(b, a), vsub(c, b)))
