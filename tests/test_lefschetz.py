"""Superpotential ingestion: critical data, tracking, exact diagrams."""

import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from air import lefschetz
from air.acceptance import _random_morse
from air.exactgeom import orient
from air.infrared import chamber_sample, stokes_matrix, stokes_rays
from air.linalg import charpoly, inverse, mat_mul, transpose
from air.lefschetz import (
    CollinearCriticalValues,
    CriticalValueCollision,
    NotMorse,
    PathTooClose,
    Superpotential,
    critical_data,
    fiber_basis,
    loop_permutation,
    matrix_diagram_from_W,
    total_monodromy_check,
    track_fiber,
)

from conftest import deadline

A2 = Superpotential.of(["0", "-1", "0", "1/3"])  # x^3/3 - x


def a_n(n):
    """x^(n+1)/(n+1) - x; critical values on a circle."""
    coeffs = ["0", "-1"] + ["0"] * (n - 1) + [f"1/{n + 1}"]
    return Superpotential.of(coeffs)


# two critical values, -0.1034 -+ 0.0065i, lie 0.013 apart: a stop at
# 1e-4 times the scale (about 6e-3) from each is as close to the other
CLOSE_PAIR = Superpotential.of(["-1", "3", "0", "-7", "5/2", "2", "5/2", "1"])

# W' = (x + 1)(x - 2)(x^2 - 2x + 2): two real critical values and the
# conjugate pair -47/15 +- 22i/15, whose real parts tie
CONJUGATE = Superpotential.of(["0", "-4", "1", "2/3", "-3/4", "1/5"])


def _expand(roots):
    """Descending coefficients of the monic polynomial with these roots."""
    out = [1 + 0j]
    for z in roots:
        out = [a - z * b for a, b in zip(out + [0j], [0j] + out)]
    return out


# -- ingestion -----------------------------------------------------------------------


def test_superpotential_validation():
    with pytest.raises(ValueError):
        Superpotential.of(["1", "2"])       # degree 1
    with pytest.raises(ValueError):
        Superpotential.of(["1", "2", "0"])  # zero leading coefficient
    W = Superpotential.of(["1/2", "-2", "3"])
    assert W.degree == 2
    assert W(1.0) == pytest.approx(1.5)


def test_critical_data_a2():
    data = critical_data(A2)
    assert sorted(round(z.real) for z in data.points) == [-1, 1]
    with mpmath.workdps(50):
        third = mpmath.mpf(2) / 3
        assert abs(data.values_mp[0] + third) < mpmath.mpf("1e-30")
        assert abs(data.values_mp[1] - third) < mpmath.mpf("1e-30")
    # pairs are distinct basis indices
    for p, q in data.pairing:
        assert p != q
        assert 0 <= p < 3 and 0 <= q < 3


def test_critical_data_square():
    data = critical_data(Superpotential.of(["0", "0", "1"]))
    assert len(data.values) == 1
    assert abs(data.values[0]) < 1e-12
    assert data.pairing == [(0, 1)] or data.pairing == [(1, 0)]


def test_not_morse():
    with pytest.raises(NotMorse):
        critical_data(Superpotential.of(["0", "0", "0", "1"]))  # x^3


def test_critical_value_collision():
    # x^4/4 - x^2/2 has critical values 0, -1/4, -1/4
    with pytest.raises(CriticalValueCollision):
        critical_data(Superpotential.of(["0", "0", "-1/2", "0", "1/4"]))


# -- the root finder -----------------------------------------------------------------


def _root_cases():
    rng = random.Random(22)
    for degree in range(2, 8):
        for _ in range(4):
            yield [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                   for _ in range(degree + 1)]
    yield _expand([0j, 1 + 1j, -2 + 0j, 0.5j])               # a root at 0
    yield _expand([0j, 0j, 3 - 1j])                          # a double root at 0
    yield _expand([1 + 0j, 1 + 1e-6, -1.5 + 0.5j, 2j, -1j])  # 1e-6 apart
    yield [1, 0, 0, 0, -1]                                   # symmetric


@pytest.mark.parametrize("desc", list(_root_cases()))
def test_roots_rebuild_the_monic_coefficients(desc):
    roots = lefschetz._roots(desc)
    assert len(roots) == len(desc) - 1
    want = [c / desc[0] for c in desc]
    got = _expand(roots)
    assert max(abs(g - w) for g, w in zip(got, want)) \
        <= 1e-9 * max(abs(w) for w in want)


def test_unsettled_roots_raise_typed_errors(monkeypatch):
    W = Superpotential.of(["1", "-3", "0", "1/2", "1/7"])
    monkeypatch.setattr(lefschetz, "_ABERTH_SWEEPS", 1)
    lefschetz._critical_core.cache_clear()
    with pytest.raises(NotMorse):
        critical_data(W)
    with pytest.raises(PathTooClose):
        fiber_basis(W, 2 + 1j)
    lefschetz._critical_core.cache_clear()


# -- fibers and tracking -------------------------------------------------------------


def test_fiber_basis_separation():
    basis = fiber_basis(A2, 5 + 2j)
    assert len(basis.roots) == 3
    dists = [abs(a - b) for i, a in enumerate(basis.roots)
             for b in basis.roots[i + 1:]]
    assert min(dists) > 3 * basis.sep
    for r in basis.roots:
        assert abs(A2(r) - (5 + 2j)) < 1e-9


def test_track_constant_path_identity():
    basis = fiber_basis(A2, 2 + 1j)
    res = track_fiber(A2, [2 + 1j, 2 + 1j], basis)
    assert res.perm == [0, 1, 2]


def test_track_reverse_inverts():
    data = critical_data(A2)
    basis = data.basis
    p0 = basis.basepoint
    loop = [p0, p0 + 0.7, p0 + 0.7 + 1.2j, p0 + 1.2j, p0]
    fwd = track_fiber(A2, loop, basis).perm
    bwd = track_fiber(A2, loop[::-1], basis).perm
    n = len(fwd)
    assert [bwd[fwd[k]] for k in range(n)] == list(range(n))


def test_track_concatenation_composes():
    data = critical_data(A2)
    basis = data.basis
    p0 = basis.basepoint
    w1, w2 = data.values
    from air.lefschetz import _circle
    loop1 = [p0, p0 + 0.3] + _circle(w1, p0 + 0.3)[1:] + [p0]
    loop2 = [p0, p0 - 0.3] + _circle(w2, p0 - 0.3)[1:] + [p0]
    s1 = track_fiber(A2, loop1, basis).perm
    s2 = track_fiber(A2, loop2, basis).perm
    both = track_fiber(A2, loop1 + loop2[1:], basis).perm
    assert both == [s2[s1[k]] for k in range(len(s1))]


def test_small_loop_is_vanishing_transposition():
    data = critical_data(A2)
    w1 = data.values[0]           # -2/3
    perm = loop_permutation(A2, w1, w1 + 0.3)
    moved = [k for k, v in enumerate(perm) if v != k]
    assert len(moved) == 2
    assert perm[moved[0]] == moved[1] and perm[moved[1]] == moved[0]


def test_path_too_close():
    data = critical_data(A2)
    basis = data.basis
    p0 = basis.basepoint
    with pytest.raises(PathTooClose):
        track_fiber(A2, [p0, data.values[0], p0], basis)


def test_track_needs_matching_basepoint():
    basis = fiber_basis(A2, 2 + 1j)
    with pytest.raises(ValueError):
        track_fiber(A2, [5 + 5j, 6 + 5j], basis)


@pytest.mark.parametrize("max_step", [0.0, math.nan, -0.5, 1.5])
def test_max_step_out_of_range_is_rejected(max_step):
    basis = fiber_basis(A2, 2 + 1j)
    square = Superpotential.of(["0", "0", "1"])  # one critical value, no pair
    with deadline(10):
        with pytest.raises(ValueError, match="max_step"):
            track_fiber(A2, [2 + 1j, 3 + 1j], basis, max_step=max_step)
        with pytest.raises(ValueError, match="max_step"):
            loop_permutation(A2, -2 / 3, 0.0, max_step=max_step)
        with pytest.raises(ValueError, match="max_step"):
            matrix_diagram_from_W(square, max_step=max_step)
        with pytest.raises(ValueError, match="max_step"):
            total_monodromy_check(A2, max_step=max_step)


def test_steps_and_halvings_are_counted():
    basis = fiber_basis(A2, 2 + 1j)
    res = track_fiber(A2, [2 + 1j, 2 + 1j], basis)
    assert (res.steps, res.halvings) == (0, 0)
    res = track_fiber(A2, [2 + 1j, 3 + 1j], basis, max_step=0.25)
    assert res.steps >= 4
    res = track_fiber(A2, [2 + 1j, 3 + 1j], basis, max_step=1.0)
    assert res.steps >= 1  # a whole segment is the largest step allowed
    data = critical_data(A2)
    p0, w = data.basis.basepoint, data.values[0]
    res = track_fiber(A2, [p0, w + 1e-4 * (p0 - w) / abs(p0 - w)], data.basis)
    assert res.halvings > 0  # steps shrink as two roots close in


# sha256 of repr((roots, perm)) per W for a leg from the basepoint to just
# short of the first critical value, the circle about the centroid of the
# critical values through the basepoint, and the leg again at max_step =
# 1/8 (which ends on the same bits as the first leg)
_TRACK_GOLDEN = {
    ("0", "-1", "0", "1/3"): (
        "d57f98c6777446999be1c67d30b587e8f03a46fa41886b50986d1cbd79fd517a",
        "ec24795c5376d7475b5589499dee4409b15eafe09965859993b5e66c7a42eae4",
        "d57f98c6777446999be1c67d30b587e8f03a46fa41886b50986d1cbd79fd517a"),
    ("0", "26", "-19", "9", "-2", "1/5"): (
        "30e9d450669fe28dcae604fa3a38b14008e1fda4cc52ffaaa2dfb9148b1c1b12",
        "20c7f7469abeb15913d9a5509ac3693f18b632a07b6f0cb1f94d575b606bbcb8",
        "30e9d450669fe28dcae604fa3a38b14008e1fda4cc52ffaaa2dfb9148b1c1b12"),
    ("0", "-8", "-4", "-2/3", "1/2", "1/5"): (
        "9ac1cd9222a9843fa583f4f0b31cbd2547add6f00118a98f5ac8bf58ad1437b4",
        "3ed3ce2d6295dd43c23f6a780d10cd9d86b37c194a77f54ca0adf9582e77a302",
        "9ac1cd9222a9843fa583f4f0b31cbd2547add6f00118a98f5ac8bf58ad1437b4"),
    ("0", "100", "0", "-16/3", "0", "1/5"): (
        "0d063940d9270036fa4188ad56589f4acf051f717eb73deeb6bfeaa30e13d00f",
        "41fcb6487070457b16be491406eeea46d3a810fdf05022e4c62edf4be3d9447e",
        "0d063940d9270036fa4188ad56589f4acf051f717eb73deeb6bfeaa30e13d00f"),
}


@pytest.mark.parametrize("coeffs", list(_TRACK_GOLDEN), ids=[
    "A2", "bench-0", "bench-1", "bench-2"])
def test_tracked_fibers_are_bit_identical(coeffs):
    """The tracker's floats, pinned bit for bit: A2 and three degree-5 W of
    the superpotential bench's shape."""
    W = Superpotential.of(coeffs)
    data = critical_data(W)
    p0, w = data.basis.basepoint, data.values[0]
    stop = w - 1e-4 * lefschetz._scale([w, p0]) * (w - p0) / abs(w - p0)
    centroid = sum(data.values) / len(data.values)
    tracks = [track_fiber(W, [p0, stop], data.basis),
              track_fiber(W, lefschetz._circle(centroid, p0), data.basis),
              track_fiber(W, [p0, stop], data.basis, max_step=0.125)]
    assert tuple(hashlib.sha256(repr((r.roots, r.perm)).encode()).hexdigest()
                 for r in tracks) == _TRACK_GOLDEN[coeffs]


def test_local_loops_are_transpositions():
    """The Picard-Lefschetz fact behind mu = -1 in matrix_diagram_from_W:
    the circle of 0.45 times the distance to the nearest other critical
    value, through the fiber beside it, swaps exactly two roots."""
    rng = random.Random(3)
    done = 0
    while done < 30:
        W = _random_morse(rng)
        try:
            matrix_diagram_from_W(W)
        except ValueError:
            continue
        ws = critical_data(W).values
        for w in ws:
            nbr = min((abs(v - w) for v in ws if v != w), default=2.0)
            perm = loop_permutation(W, w, w + 0.45 * nbr)
            moved = [k for k, v in enumerate(perm) if v != k]
            assert len(moved) == 2 and perm[moved[0]] == moved[1], perm
        done += 1


# -- exact diagrams ------------------------------------------------------------------


def test_matrix_diagram_a2():
    md = matrix_diagram_from_W(A2)
    assert md.config.labels == ["w1", "w2"]
    assert md.config.point("w1") == (Fraction(-2, 3), Fraction(0))
    assert md.config.point("w2") == (Fraction(2, 3), Fraction(0))
    assert md.snap_error == 0.0
    assert abs(md.t("w1", "w2")[0][0]) == 1
    assert md.monodromies == {"w1": [[Fraction(-1)]],
                              "w2": [[Fraction(-1)]]}


def test_matrix_diagram_square():
    md = matrix_diagram_from_W(Superpotential.of(["0", "0", "1"]))
    assert md.phi_dims == {"w1": 1}
    assert md.transports == {}
    assert md.monodromies["w1"] == [[Fraction(-1)]]


def test_matrix_diagram_collinear_values():
    # W' = x(x-1)(x+2): three distinct real critical values sit on a line
    W = Superpotential.of(["0", "0", "-1", "1/3", "1/4"])
    data = critical_data(W)
    assert len(data.values) == 3
    assert all(abs(w.imag) < 1e-12 for w in data.values)
    with pytest.raises(CollinearCriticalValues):
        matrix_diagram_from_W(W)


def test_chain_transports_bounded():
    for n in (2, 3, 4, 5):
        md = matrix_diagram_from_W(a_n(n))
        assert len(md.config.labels) == n
        for t in md.transports.values():
            assert abs(t[0][0]) <= 1
            assert t[0][0].denominator == 1
        if n in (3, 5):
            assert md.snap_error > 0  # -3/4 and -5/6 times roots of unity
        if n == 4:  # -4/5 times the fourth roots of unity: rational
            assert md.snap_error < 1e-12
            assert set(md.config.coords.values()) == {
                (Fraction(4, 5), 0), (Fraction(-4, 5), 0),
                (0, Fraction(4, 5)), (0, Fraction(-4, 5))}


def test_matrix_diagram_deterministic():
    a = matrix_diagram_from_W(a_n(3))
    b = matrix_diagram_from_W(a_n(3))
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("W, points", [
    (a_n(4), [(Fraction(-4, 5), 0), (0, Fraction(-4, 5)),
              (0, Fraction(4, 5)), (Fraction(4, 5), 0)]),
    (CONJUGATE, [(Fraction(-64, 15), 0), (Fraction(-47, 15), Fraction(-22, 15)),
                 (Fraction(-47, 15), Fraction(22, 15)), (Fraction(203, 60), 0)]),
], ids=["a_n(4)", "conjugate-pair"])
def test_labels_do_not_depend_on_the_seeds(W, points, monkeypatch):
    """Values whose real parts tie are labelled by their imaginary parts,
    whatever residues the root finder's seeds leave below the polish."""
    lefschetz._critical_core.cache_clear()
    md = matrix_diagram_from_W(W)
    assert [md.config.point(f"w{k + 1}") for k in range(4)] == points
    roots = lefschetz._roots
    for shift in (1e-9 * (1 + 1j), 1e-9 * (1 - 1j)):  # residues of either sign
        monkeypatch.setattr(lefschetz, "_roots", lambda desc, shift=shift: [
            z + shift for z in reversed(roots(desc))])
        lefschetz._critical_core.cache_clear()
        assert matrix_diagram_from_W(W).to_json() == md.to_json()
    lefschetz._critical_core.cache_clear()


def _coxeter_in_every_chamber(md):
    """Whether -S^-1 S^T has characteristic polynomial 1 + x + ... + x^n,
    n the number of critical values, on both sides of every Stokes ray."""
    want = [Fraction(1)] * (len(md.config.labels) + 1)
    for ray in stokes_rays(md.config):
        for side in ("before", "after"):
            zeta = chamber_sample(md.config, ray, side)
            S = stokes_matrix(md, zeta).full_matrix(md.config.labels)
            M = mat_mul(inverse(S), transpose(S))
            if charpoly([[-x for x in row] for row in M]) != want:
                return False
    return True


def _most_values_in_one_triangle(W, md):
    """The most critical values strictly inside one triangle (p0, m, w_i),
    m the midpoint of w_i and w_j, on the snapped values."""
    b = critical_data(W).basis.basepoint
    p0 = (lefschetz._snap_value(b.real), lefschetz._snap_value(b.imag))
    pts = [md.config.point(l) for l in md.config.labels]
    most = 0
    for wi in pts:
        for wj in pts:
            if wj == wi:
                continue
            m = ((wi[0] + wj[0]) / 2, (wi[1] + wj[1]) / 2)
            turns = [{orient(p0, wi, w), orient(wi, m, w), orient(m, p0, w)}
                     for w in pts]
            most = max(most, sum(t in ({1}, {-1}) for t in turns))
    return most


# degree 6, five critical values, two of them inside one triangle (p0, m, w_i)
TWO_INSIDE = Superpotential.of(["-4", "9", "8", "1/2", "-4", "0", "-1"])


def test_stokes_monodromy_is_coxeter_in_every_chamber():
    """The Cecotti-Vafa monodromy -S^-1 S^T of the emitted diagram is the
    d-cycle's Coxeter element, on both sides of every wall: on criterion
    10's generator, and on a W whose transports need two reflections, in
    sweep order, for one class."""
    rng = random.Random(3)
    diagrams = []
    while len(diagrams) < 24:
        W = _random_morse(rng)
        if W is None:
            continue
        try:
            md = matrix_diagram_from_W(W)
        except ValueError:
            continue
        if len(md.config.labels) >= 3:
            diagrams.append(md)
    md = matrix_diagram_from_W(TWO_INSIDE)
    assert _most_values_in_one_triangle(TWO_INSIDE, md) >= 2
    diagrams.append(md)
    for md in diagrams:
        assert _coxeter_in_every_chamber(md), md.to_json()


def test_opposite_transports_are_negatives():
    for W in (a_n(2), a_n(3), a_n(4), a_n(5), CONJUGATE, TWO_INSIDE):
        md = matrix_diagram_from_W(W)
        labels = md.config.labels
        for i in labels:
            for j in labels:
                if i != j:
                    assert md.t(j, i) == [[-md.t(i, j)[0][0]]]
        if W is not TWO_INSIDE:  # every pair of these values pairs to +-1
            assert all(abs(t[0][0]) == 1 for t in md.transports.values())


def test_a_value_on_the_path_to_the_midpoint_counts_once():
    """A value on the open segment p0 m counts for one end of w_i w_j: the
    transport equals the one with p0 moved a little to either side, which
    puts the value strictly inside one triangle or the other."""
    classes = [[1, -1, 0, 0], [0, 0, 1, -1], [0, 1, -1, 0]]
    pts = [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(-1, 2))]
    got = {}
    for dx in (0, Fraction(1, 1000), Fraction(-1, 1000)):
        p0 = (Fraction(dx), Fraction(-10))
        got[dx] = [lefschetz._segment_transport(classes, pts, p0, i, j)
                   for i, j in ((0, 1), (0, 2), (1, 2))]
    assert got[0] == got[Fraction(1, 1000)] == got[Fraction(-1, 1000)]
    assert got[0][0] != 0  # the reflection in w3's class is what pairs them


def test_one_fiber_basis_and_one_leg_per_value(monkeypatch):
    """A diagram tracks from the one basis at p0, one leg per critical
    value, at the max_step it was given."""
    calls = {"fiber_basis": 0, "track_fiber": []}
    basis, track = lefschetz.fiber_basis, lefschetz.track_fiber

    def counted_basis(*args, **kw):
        calls["fiber_basis"] += 1
        return basis(*args, **kw)

    def counted_track(W, path, b, max_step=0.25):
        calls["track_fiber"].append(max_step)
        return track(W, path, b, max_step)
    monkeypatch.setattr(lefschetz, "fiber_basis", counted_basis)
    monkeypatch.setattr(lefschetz, "track_fiber", counted_track)
    matrix_diagram_from_W(a_n(4), max_step=0.125)
    assert calls == {"fiber_basis": 1, "track_fiber": [0.125] * 4}


def _joins_all(pairs, d):
    reached, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for p, q in pairs:
            for x, y in ((p, q), (q, p)):
                if x == a and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(pairs) == d - 1 and reached == set(range(d))


def test_close_values_get_distinct_pairs(monkeypatch):
    """Each leg stops at most a tenth of the gap to the nearest other value
    short of its own, so two values 0.013 apart get their own pairs, and
    the pairs join all the roots; pairs that do not are refused."""
    data = critical_data(CLOSE_PAIR)
    assert _joins_all(data.pairing, CLOSE_PAIR.degree)
    md = matrix_diagram_from_W(CLOSE_PAIR)
    assert _coxeter_in_every_chamber(md)
    monkeypatch.setattr(lefschetz, "_vanishing_pair",
                        lambda *args, **kw: (0, 1))
    with pytest.raises(PathTooClose, match="do not join"):
        critical_data(a_n(3))


def test_step_halving_stable():
    for W in (A2, a_n(3)):
        md = matrix_diagram_from_W(W)
        md2 = matrix_diagram_from_W(W, max_step=0.125)
        assert md.to_json() == md2.to_json()


# -- total monodromy -----------------------------------------------------------------


def test_total_monodromy_a2():
    rep = total_monodromy_check(A2)
    assert rep.degree == 3
    assert rep.is_full_cycle
    assert rep.composition_matches
    assert rep.ok


def test_total_monodromy_square():
    rep = total_monodromy_check(Superpotential.of(["0", "0", "1"]))
    assert rep.big_perm == [1, 0]
    assert rep.ok


def test_total_monodromy_chains():
    for n in (3, 4, 5):
        rep = total_monodromy_check(a_n(n))
        assert rep.degree == n + 1
        assert rep.is_full_cycle
        assert rep.composition_matches


def test_total_monodromy_random_morse():
    rng = random.Random(410)
    done = 0
    while done < 5:
        deg = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)] \
            + [Fraction(rng.choice([1, -1, 2]))]
        try:
            W = Superpotential(tuple(coeffs))
            rep = total_monodromy_check(W)
        except ValueError:
            continue
        assert rep.is_full_cycle
        assert rep.composition_matches
        half = total_monodromy_check(W, max_step=0.125)
        assert half.big_perm == rep.big_perm
        done += 1
