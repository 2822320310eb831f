"""The integer grid of a configuration: grid[l] = coords[l] * scale, with
scale the lcm of the coordinate denominators.  Signs and orders are read on
the grid; every emitted value stays a Fraction with the value it has on the
rational coordinates.  Golden hashes pin those values on configurations with
mixed denominators; the metamorphic tests rescale a configuration."""

import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from air.exactgeom import (
    GeometryError,
    Point,
    PointConfig,
    check_genericity,
    pt,
)
from air.secondary import (
    InvalidSubdivision,
    brute_force_triangulations,
    enumerate_subdivisions,
    gkz_vector,
    is_regular,
    secondary_face_lattice,
    validate_subdivision,
)
from conftest import random_generic_config, random_mixed_config


def _thirds_sevenths(cfg):
    """The configuration with x divided by 3 and y by 7: still generic."""
    return PointConfig.of([(l, cfg.point(l).x / 3, cfg.point(l).y / 7)
                           for l in cfg.labels])


def _golden_configs():
    rng = random.Random(1717)
    out = [random_mixed_config(rng, n) for n in (4, 5, 5, 6, 6)]
    out += [_thirds_sevenths(random_generic_config(random.Random(s), n))
            for s, n in ((3, 5), (4, 6))]
    # a triangle in a triangle: two of its triangulations are not regular
    out.append(_thirds_sevenths(PointConfig.of(
        [("A", 0, 0), ("B", 4, 0), ("C", 0, 4), ("x", 1, 1), ("y", 2, 1),
         ("z", 1, 2)])))
    return out


def _outputs(cfg):
    tris = brute_force_triangulations(cfg)
    return (enumerate_subdivisions(cfg), tris,
            [gkz_vector(cfg, t) for t in tris],
            [is_regular(cfg, t) for t in tris],
            secondary_face_lattice(cfg))


# sha256 of repr(_outputs(cfg)) per golden configuration, recorded on the
# rational-coordinate implementation before the grid existed
GOLDEN = [
    "effae64016944f9977ac044d0a74476804b3e62cf48d9fd670cf51e513a2cdcf",
    "bbe810ebc6ee0fee9c81fb1a9d3c24f1bc7ff3fb9bc648cf908fdcab9baccbad",
    "39b2956ba7775a6c7f9c4ce497f5801cd934094e141234d794faa02217078b0c",
    "cfda069da2934a5ed2d85b94ac49bc1687a8f2fbaaffdc2349151aa4a8ce4990",
    "4220caa276b1f2faa16d90a037fcd1b8d25457181c211262c974296272f4c48f",
    "5fbec4cf46eac527a277c1ea521205097728e10fcd532dcb9016a2191a5441f2",
    "570dfed140a81107d78ead6a99714be3608eb4ab3d061f1b9f8e3931c8ab0f9e",
    "9bf3b634eabcc75669af93449dbe46c09acedf7c7fdf6d2edc59e54b9fd1ec25",
]


def test_golden_outputs_on_mixed_denominators():
    digests = [hashlib.sha256(repr(_outputs(cfg)).encode()).hexdigest()
               for cfg in _golden_configs()]
    assert digests == GOLDEN


def test_grid_is_coordinates_times_the_lcm_of_denominators():
    cfg = PointConfig.of([("a", "1/3", "-2/7"), ("b", 2, "5/6"),
                          ("c", "-4/9", 1), ("d", 0, 0)])
    assert cfg.scale == lcm(3, 7, 6, 9) == 126

    def check(c):
        dens = [q.denominator for l in c.labels for q in c.point(l)]
        assert c.scale == lcm(*dens)
        assert set(c.grid) == set(c.labels)
        for l in c.labels:
            gx, gy = c.grid[l]
            assert type(gx) is int and type(gy) is int
            assert (gx, gy) == (c.point(l).x * c.scale, c.point(l).y * c.scale)

    check(cfg)
    sub = cfg.subconfig(["b", "d"])
    check(sub)
    assert sub.scale == 6
    wide = cfg.with_point("e", pt("1/11", "1/2"), front=True)
    check(wide)
    assert wide.scale == 126 * 11
    assert wide.labels[0] == "e"


def test_grid_fields_stay_out_of_equality_and_repr():
    a = PointConfig.of([("a", 0, 0), ("b", "1/2", 1)])
    b = PointConfig.of([("a", 0, 0), ("b", "1/2", 1)])
    assert a == b
    assert "grid" not in repr(a) and "scale" not in repr(a)
    assert PointConfig.from_obj(a.to_obj()) == a


def test_a_float_coordinate_is_a_typed_error_naming_its_label():
    good = Point(Fraction(0), Fraction(0))
    with pytest.raises(GeometryError, match="'b'"):
        PointConfig(["a", "b"], {"a": good, "b": Point(Fraction(1), 0.5)})
    cfg = PointConfig(["a"], {"a": good})
    with pytest.raises(GeometryError, match="'z'"):
        cfg.with_point("z", Point(2.0, Fraction(1)))


@pytest.mark.parametrize("k", [Fraction(3), Fraction(2, 5), Fraction(7, 3)])
def test_scaling_keeps_the_combinatorics_and_scales_gkz_by_k_squared(k):
    for cfg in _golden_configs()[:3]:
        big = PointConfig.of([(l, cfg.point(l).x * k, cfg.point(l).y * k)
                              for l in cfg.labels])
        tris = brute_force_triangulations(cfg)
        assert brute_force_triangulations(big) == tris
        assert enumerate_subdivisions(big) == enumerate_subdivisions(cfg)
        for t in tris:
            assert gkz_vector(big, t) == tuple(v * k * k
                                               for v in gkz_vector(cfg, t))
            assert bool(is_regular(big, t)) == bool(is_regular(cfg, t))


def test_emitted_volumes_and_heights_are_fractions():
    for cfg in _golden_configs()[:4]:
        for t in brute_force_triangulations(cfg):
            assert all(type(v) is Fraction for v in gkz_vector(cfg, t))
            w = is_regular(cfg, t)
            if w:
                assert all(type(h) is Fraction for h in w.heights.values())
        lattice = secondary_face_lattice(cfg)
        assert all(type(v) is Fraction for g in lattice.gkz_vectors for v in g)


def test_validation_rejects_bad_tilings_off_the_integer_lattice():
    # a square of side 1/3 and a point p inside triangle abc, on no diagonal
    cfg = PointConfig.of([("a", "1/5", "1/7"), ("b", "8/15", "1/7"),
                          ("c", "8/15", "10/21"), ("d", "1/5", "10/21"),
                          ("p", "2/5", "2/7")])
    assert check_genericity(cfg)
    assert cfg.scale == 105
    fan = [("a", "b", "p"), ("b", "c", "p"), ("a", "p", "c"), ("a", "c", "d")]
    validate_subdivision(cfg, fan)
    validate_subdivision(cfg, [("a", "b", "c"), ("a", "c", "d")])
    with pytest.raises(InvalidSubdivision, match="not strictly convex"):
        validate_subdivision(cfg, [("a", "b", "c", "p"), ("a", "c", "d")])
    with pytest.raises(InvalidSubdivision):  # overlap: both diagonals
        validate_subdivision(cfg, [("a", "b", "c"), ("a", "c", "d"),
                                   ("a", "b", "d")])
    with pytest.raises(InvalidSubdivision):  # overlap: abc over the fan at p
        validate_subdivision(cfg, fan[:2] + [("a", "b", "c"), ("a", "c", "d")])
    with pytest.raises(InvalidSubdivision):  # gap: one fan triangle missing
        validate_subdivision(cfg, fan[:2] + [("a", "c", "d")])
    with pytest.raises(InvalidSubdivision):  # gap: one triangle only
        validate_subdivision(cfg, [("a", "b", "c")])
