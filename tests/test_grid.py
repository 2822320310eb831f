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
    lift_subdivision,
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
            [bool(is_regular(cfg, t)) for t in tris],
            secondary_face_lattice(cfg))


# sha256 of repr(_outputs(cfg)) per golden configuration.  The regularity
# entries are decisions: witness heights depend on the solver, and only their
# lift is pinned (below).  Recorded with the Fourier-Motzkin solver, on the
# integer grid.
GOLDEN = [
    "9143cf51d4fa5a17f8adbbf2da0c16e7c496666406ee048200c35f0d2eb3aa92",
    "cec0b526c7f280c923ee3070c9c4e6c8ce7ab51468b3fe82beacc2f18c536a3f",
    "dd05531a23169a1c53ad65ea494146f5b9012fbac4df1a2dec2e763ad698d723",
    "ff6a2aa558106d98c119c8cb85abcdd23d0f678d1327ae7b9b1b6b7d966694a9",
    "5b1428c93fbd066b5d841996aa74ca7d0ebc7af8c2b65370cb18edd7764d8595",
    "2b3b7c8b611337ec085e43f56022417e93c45305da58c02a583c2a14b1f8fb9d",
    "ebae780a8cfe7bb982f8e33b1d1eb8f6a14d130bf422893674b084c8c19381ab",
    "2a925fb38e02080b95d1eb7e48391ed953a4be198b6d147e0450e068aeafd7d8",
]


def test_golden_outputs_on_mixed_denominators():
    digests = [hashlib.sha256(repr(_outputs(cfg)).encode()).hexdigest()
               for cfg in _golden_configs()]
    assert digests == GOLDEN


def test_golden_witnesses_lift_back():
    for cfg in _golden_configs():
        for t in brute_force_triangulations(cfg):
            w = is_regular(cfg, t)
            if w:
                assert lift_subdivision(cfg, w.heights) == t


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
