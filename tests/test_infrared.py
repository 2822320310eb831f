"""Convex paths, Stokes matrices, the factorization oracle, wall crossing."""

import hashlib
import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from air.cli import run_cli
from air.exactgeom import (DegenerateConfig, Direction, PointConfig,
                           check_genericity, parse_rational)
from air.infrared import (
    BadRay,
    FsFiltration,
    NonGenericZeta,
    NotConvexPosition,
    ParallelDifferences,
    StokesMatrix,
    chamber_sample,
    enumerate_convex_paths,
    fs_filtration,
    hull_vertex_convex_path,
    is_convex_path,
    polygon_trace,
    stokes_matrix,
    stokes_matrix_oracle,
    stokes_rays,
    wall_cross_report,
    zeta_order,
)
from air.linalg import identity, mat, mat_eq, mat_mul
from air.perv import MatrixDiagram

from conftest import (
    deadline,
    random_generic_config,
    random_generic_zeta,
    random_matrix_diagram,
    random_stokes_config,
)

Z_UP = Direction.of(0, 1)
Z_DOWN = Direction.of(0, -1)


def cfg3b():
    return PointConfig.of([("w1", 0, 0), ("w2", 2, 1), ("w3", 1, -3)])


def cfg3_above():
    # the middle point sits above the chord from w2 to w1
    return PointConfig.of([("w1", 0, 0), ("w2", 2, 1), ("w3", 1, 3)])


def rank_one_diagram(cfg, scalars):
    """All spaces one-dimensional; transports given as {(i, j): scalar}."""
    dims = {l: 1 for l in cfg.labels}
    mono = {l: [[Fraction(1)]] for l in cfg.labels}
    trans = {k: [[Fraction(v)]] for k, v in scalars.items()}
    return MatrixDiagram(cfg, dims, mono, trans)


# -- zeta order ----------------------------------------------------------------------


def test_zeta_order_cfg3b():
    assert zeta_order(cfg3b(), Z_UP) == ["w2", "w3", "w1"]
    assert zeta_order(cfg3b(), Z_DOWN) == ["w1", "w3", "w2"]


def test_zeta_order_tie_raises():
    cfg = PointConfig.of([("a", 0, 0), ("b", 0, 5)])
    with pytest.raises(NonGenericZeta):
        zeta_order(cfg, Z_UP)  # equal projections onto rho(zeta)
    assert zeta_order(cfg, Direction.of(1, 0)) == ["a", "b"]


def test_zeta_order_collinear_raises():
    cfg = PointConfig.of([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)])
    with pytest.raises(DegenerateConfig):
        zeta_order(cfg, Direction.of(1, 0))


# -- walls ---------------------------------------------------------------------------


def test_stokes_rays_counts():
    two = PointConfig.of([("a", 0, 0), ("b", 3, 1)])
    assert [r.vec() for r in stokes_rays(two)] == [(3, 1), (-3, -1)]
    assert len(stokes_rays(cfg3b())) == 6


def test_stokes_rays_deduplicates_parallel_sides():
    square = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 1, 1), ("d", 0, 1)])
    rays = stokes_rays(square)
    assert len(rays) == 8  # 12 ordered differences fall into 8 ray classes
    assert len(set(rays)) == len(rays)


def test_stokes_rays_angle_sorted():
    rays = stokes_rays(cfg3b())
    vecs = [r.vec() for r in rays]
    assert vecs == [(2, 1), (1, 4), (-1, 3), (-2, -1), (-1, -4), (1, -3)]


# -- convexity predicates ------------------------------------------------------------


def test_convex_path_cfg3b():
    assert is_convex_path(cfg3b(), Z_UP, ("w2", "w3", "w1"))  # cross = -7


def test_convex_path_above_chord_rejected():
    assert not is_convex_path(cfg3_above(), Z_UP, ("w2", "w3", "w1"))
    assert not hull_vertex_convex_path(cfg3_above(), Z_UP, ("w2", "w3", "w1"))


def test_convex_path_single_edge():
    assert is_convex_path(cfg3b(), Z_UP, ("w2", "w3"))
    assert is_convex_path(cfg3b(), Z_UP, ("w3", "w1"))
    assert not is_convex_path(cfg3b(), Z_UP, ("w1", "w3"))  # order decreases


def test_convex_path_degenerate_inputs():
    cfg = cfg3b()
    assert not is_convex_path(cfg, Z_UP, ())
    assert not is_convex_path(cfg, Z_UP, ("w2", "w2"))
    assert not is_convex_path(cfg, Z_UP, ("w2", "nope"))
    assert is_convex_path(cfg, Z_UP, ("w2",))  # a vertex is trivially convex


def test_predicates_agree_on_all_subsequences():
    rng = random.Random(401)
    cfgs = [cfg3b(), cfg3_above()]
    cfgs += [random_stokes_config(rng, n) for n in (4, 5, 5)]
    for cfg in cfgs:
        zeta = random_generic_zeta(rng, cfg)
        for k in range(1, min(5, len(cfg.labels)) + 1):
            for seq in itertools.permutations(cfg.labels, k):
                assert is_convex_path(cfg, zeta, seq) == \
                    hull_vertex_convex_path(cfg, zeta, seq), (cfg, zeta, seq)


# -- path enumeration ----------------------------------------------------------------


def test_enumerate_paths_cfg3b():
    paths = enumerate_convex_paths(cfg3b(), Z_UP, "w2", "w1")
    assert paths == [("w2", "w1"), ("w2", "w3", "w1")]


def test_enumerate_paths_adjacent_pair():
    paths = enumerate_convex_paths(cfg3b(), Z_UP, "w2", "w3")
    assert paths == [("w2", "w3")]


def test_enumerate_paths_wrong_direction():
    with pytest.raises(ValueError):
        enumerate_convex_paths(cfg3b(), Z_UP, "w1", "w2")
    with pytest.raises(ValueError):
        enumerate_convex_paths(cfg3b(), Z_UP, "w1", "w1")


def test_enumerate_paths_all_convex():
    rng = random.Random(402)
    for _ in range(5):
        cfg = random_stokes_config(rng, 5)
        zeta = random_generic_zeta(rng, cfg)
        order = zeta_order(cfg, zeta)
        for a, b in itertools.combinations(range(len(order)), 2):
            paths = enumerate_convex_paths(cfg, zeta, order[a], order[b])
            assert len(set(paths)) == len(paths)
            for p in paths:
                assert is_convex_path(cfg, zeta, p)
        # brute force agreement over every subsequence
        labels = list(cfg.labels)
        for a, b in itertools.combinations(range(len(order)), 2):
            found = set(enumerate_convex_paths(cfg, zeta, order[a], order[b]))
            brute = set()
            inner = [l for l in labels if l not in (order[a], order[b])]
            for k in range(len(inner) + 1):
                for mid in itertools.permutations(inner, k):
                    seq = (order[a],) + mid + (order[b],)
                    if is_convex_path(cfg, zeta, seq):
                        brute.add(seq)
            assert found == brute


# -- Stokes matrices -----------------------------------------------------------------


def test_stokes_matrix_rank_one_example():
    md = rank_one_diagram(cfg3b(), {("w2", "w1"): 2, ("w3", "w1"): 5,
                                    ("w2", "w3"): 7})
    C = stokes_matrix(md, Z_UP)
    assert C.order == ["w2", "w3", "w1"]
    assert C.blocks[("w2", "w1")] == [[Fraction(37)]]  # 2 + 5*7
    assert C.blocks[("w2", "w3")] == [[Fraction(7)]]
    assert C.blocks[("w3", "w1")] == [[Fraction(5)]]


def test_stokes_matrix_single_point():
    cfg = PointConfig.of([("a", 0, 0)])
    md = rank_one_diagram(cfg, {})
    C = stokes_matrix(md, Z_UP)
    assert C.blocks == {}
    assert C.full_matrix() == identity(1)


def test_stokes_matrix_two_points():
    cfg = PointConfig.of([("a", 0, 0), ("b", 1, 0)])
    dims = {"a": 2, "b": 1}
    t_ab = mat([[1, 2]])
    md = MatrixDiagram(cfg, dims, {"a": identity(2), "b": identity(1)},
                       {("a", "b"): t_ab})
    C = stokes_matrix(md, Z_DOWN)
    assert C.order == ["a", "b"]
    assert C.blocks == {("a", "b"): t_ab}


def test_full_matrix_in_zeta_basis():
    md = rank_one_diagram(cfg3b(), {("w2", "w1"): 2, ("w3", "w1"): 5,
                                    ("w2", "w3"): 7})
    full = stokes_matrix(md, Z_UP).full_matrix()
    # basis order [w2, w3, w1]; entry (target row, source column)
    assert full == mat([[1, 0, 0], [7, 1, 0], [37, 5, 1]])


def test_stokes_matrix_zero_dims():
    cfg = PointConfig.of([("a", 0, 0), ("b", 1, 0)])
    md = MatrixDiagram(cfg, {"a": 0, "b": 0}, {"a": [], "b": []}, {})
    C = stokes_matrix(md, Z_DOWN)
    assert C.blocks == {}
    assert C.full_matrix() == []
    assert stokes_matrix_oracle(md, Z_DOWN) == C


def path_sum_definition(md, zeta):
    """C_ij as the definition states it: the transport composites summed
    over every convex path i -> j listed by enumerate_convex_paths."""
    order = zeta_order(md.config, zeta)
    dims = md.phi_dims
    blocks = {}
    for i, j in itertools.combinations(order, 2):
        total = [[Fraction(0)] * dims[i] for _ in range(dims[j])]
        for path in enumerate_convex_paths(md.config, zeta, i, j):
            comp = identity(dims[i])
            for u, v in zip(path, path[1:]):
                t = md.t(u, v)
                comp = [[sum((t[r][k] * comp[k][c] for k in range(dims[u])),
                             Fraction(0)) for c in range(dims[i])]
                        for r in range(dims[v])]
            total = [[x + y for x, y in zip(ra, rb)]
                     for ra, rb in zip(total, comp)]
        blocks[(i, j)] = total
    return StokesMatrix(zeta, order, dict(dims), blocks)


def test_stokes_matrix_equals_the_path_sum_definition():
    rng = random.Random(409)
    oracle_refused = 0
    for trial in range(24):
        n = rng.randint(2, 9)
        if trial % 2:  # convex position, with parallel differences when
            # two pairs of abscissae have equal sums
            xs = rng.sample(range(-6, 7), n)
            cfg = PointConfig.of([(f"p{k}", x, x * x)
                                  for k, x in enumerate(xs)])
        else:
            cfg = random_generic_config(rng, n, lo=-6, hi=6)
        md = random_matrix_diagram(rng, cfg, max_dim=2, min_dim=0)
        zeta = random_generic_zeta(rng, cfg)
        assert stokes_matrix(md, zeta) == path_sum_definition(md, zeta)
        try:
            stokes_matrix_oracle(md, zeta)
        except ParallelDifferences:
            oracle_refused += 1
    assert oracle_refused >= 4


def test_stokes_matrix_checks_genericity_once(monkeypatch):
    """One zeta check per call; the diagram found its collinear triples when
    it was built, so no call runs an orientation test in exactgeom."""
    import air.exactgeom as exactgeom
    import air.infrared as infrared
    rng = random.Random(410)
    cfg = random_generic_config(rng, 7)
    md = random_matrix_diagram(rng, cfg, min_dim=1)
    zetas = [random_generic_zeta(rng, cfg) for _ in range(2)]
    checks, orients = [], []
    real_check, real_orient = infrared.check_genericity, exactgeom.orient

    def counted_check(*args, **kwargs):
        checks.append(args)
        return real_check(*args, **kwargs)

    def counted_orient(*args):
        orients.append(args)
        return real_orient(*args)
    monkeypatch.setattr(infrared, "check_genericity", counted_check)
    monkeypatch.setattr(exactgeom, "orient", counted_orient)
    for zeta in zetas:
        stokes_matrix(md, zeta)
    assert len(checks) == 2
    assert orients == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data(),
       kind=st.sampled_from(["mixed", "zero-dims", "integer"]))
def test_integer_program_equals_the_oracle(seed, data, kind):
    """The fraction-free program against the factor product, with mixed
    denominators (scaled ints), with empty spaces, and with integer
    transports (nothing scaled)."""
    rng = random.Random(seed)
    cfg = random_stokes_config(rng, data.draw(st.integers(2, 6), label="n"))
    zeta = random_generic_zeta(rng, cfg)
    low = 0 if kind == "zero-dims" else 1
    dims = {l: data.draw(st.integers(low, 2), label=f"dim {l}")
            for l in cfg.labels}
    if kind == "zero-dims":
        dims[data.draw(st.sampled_from(cfg.labels), label="empty")] = 0
    denoms = st.just(1) if kind == "integer" else st.integers(1, 12)
    entry = st.builds(Fraction, st.integers(-9, 9), denoms)
    trans = {(i, j): [[data.draw(entry) for _ in range(dims[i])]
                      for _ in range(dims[j])]
             for i in cfg.labels for j in cfg.labels if i != j}
    md = MatrixDiagram(cfg, dims, {l: identity(dims[l]) for l in cfg.labels},
                       trans)
    C = stokes_matrix(md, zeta)
    assert C == stokes_matrix_oracle(md, zeta)
    assert all(type(x) is Fraction
               for b in C.blocks.values() for row in b for x in row)


def _golden_diagram(rng, convex):
    """A seeded 11-point matrix diagram, transports with denominators up
    to 12, and a generic zeta."""
    while True:
        if convex:
            xs = rng.sample(range(-20, 21), 11)
            cfg = PointConfig.of([(f"w{k + 1}", x, x * x)
                                  for k, x in enumerate(xs)])
        else:
            pts = {(rng.randint(-40, 40), rng.randint(-40, 40))
                   for _ in range(11)}
            cfg = PointConfig.of([(f"w{k + 1}", x, y)
                                  for k, (x, y) in enumerate(sorted(pts))])
        if len(cfg) == 11 and check_genericity(cfg):
            break
    dims = {l: rng.choice((0, 1, 2, 2)) for l in cfg.labels}
    trans = {(i, j): [[Fraction(rng.randint(-5, 5), rng.randint(1, 12))
                       for _ in range(dims[i])] for _ in range(dims[j])]
             for i in cfg.labels for j in cfg.labels if i != j}
    while True:
        z = (rng.randint(-50, 50), rng.randint(-50, 50))
        if z != (0, 0) and check_genericity(cfg, zeta=z):
            break
    md = MatrixDiagram(cfg, dims, {l: identity(dims[l]) for l in cfg.labels},
                       trans)
    return md, f"{z[0]},{z[1]}"


GOLDEN_STOKES = ("a149627cb0337c0ac10a153c7a9f09c2"
                 "41ea650bce5c2889c57680bed0791995")


def test_stokes_command_output_is_pinned(tmp_path):
    """`air stokes` stdout on seeded 11-point diagrams, byte for byte: the
    digest was recorded with the Fraction program the integer one
    replaced."""
    rng = random.Random(2525)
    digest = hashlib.sha256()
    for k in range(6):
        md, zeta = _golden_diagram(rng, convex=k % 2 == 0)
        path = tmp_path / f"md{k}.json"
        path.write_text(md.to_json())
        out = io.BytesIO()
        assert run_cli(["stokes", "--config", str(path), f"--zeta={zeta}"],
                       stdout=out) == 0
        digest.update(out.getvalue())
    assert digest.hexdigest() == GOLDEN_STOKES


def test_one_large_denominator_is_not_raised_to_the_path_length(monkeypatch):
    """A transport entry 1e-4000 enters the integer scales once: the widest
    integer the program multiplies stays near its 13288 bits, where one
    denominator common to every transport would be raised to the length of
    the longest path, ten edges on 11 points."""
    import air.infrared as infrared
    md, zeta = _golden_diagram(random.Random(3132), convex=False)
    z = Direction.of(*zeta.split(","))
    order = zeta_order(md.config, z)
    i, j = next((a, b) for a, b in itertools.combinations(order, 2)
                if md.dim(a) and md.dim(b))
    md.t(i, j)[0][0] = parse_rational("1e-4000")
    widest = 0
    real = infrared.mat_addmul

    def recorded(acc, a, b):
        nonlocal widest
        real(acc, a, b)
        widest = max([widest] + [abs(x).bit_length()
                                 for m in (acc, a, b) for row in m
                                 for x in row])
    monkeypatch.setattr(infrared, "mat_addmul", recorded)
    with deadline(10):
        C = stokes_matrix(md, z)
    assert 13288 <= widest < 2 * 13288
    monkeypatch.undo()
    with deadline(10):
        assert C == stokes_matrix_oracle(md, z)


# -- the oracle ----------------------------------------------------------------------


def test_oracle_equals_direct_sum_cfg3b():
    md = rank_one_diagram(cfg3b(), {("w2", "w1"): 2, ("w3", "w1"): 5,
                                    ("w2", "w3"): 7})
    assert stokes_matrix_oracle(md, Z_UP) == stokes_matrix(md, Z_UP)
    assert stokes_matrix_oracle(md, Z_DOWN) == stokes_matrix(md, Z_DOWN)


def test_oracle_equality_random():
    rng = random.Random(403)
    for _ in range(25):
        cfg = random_stokes_config(rng, rng.randint(2, 6))
        md = random_matrix_diagram(rng, cfg)
        for _ in range(3):
            zeta = random_generic_zeta(rng, cfg)
            assert stokes_matrix_oracle(md, zeta) == stokes_matrix(md, zeta)


def test_oracle_parallel_differences():
    square = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 1, 1), ("d", 0, 1)])
    md = random_matrix_diagram(random.Random(404), square, max_dim=1, min_dim=1)
    with pytest.raises(ParallelDifferences):
        stokes_matrix_oracle(md, Direction.of(1, 3))
    # the path-sum definition is still available there
    stokes_matrix(md, Direction.of(1, 3))


def test_oracle_names_the_pair_a_direction_repeats():
    square = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 1, 1), ("d", 0, 1)])
    md = random_matrix_diagram(random.Random(404), square, max_dim=1, min_dim=1)
    # zeta-order b, c, a, d: c -> d repeats the direction of b -> a
    with pytest.raises(ParallelDifferences,
                       match=r"\('b', 'a'\) and \('c', 'd'\)"):
        stokes_matrix_oracle(md, Direction.of(1, 3))


def test_path_count_matches_oracle_monomials():
    # with distinct prime scalars, each path contributes one distinct monomial
    rng = random.Random(405)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
    for _ in range(8):
        cfg = random_stokes_config(rng, 5)
        zeta = random_generic_zeta(rng, cfg)
        order = zeta_order(cfg, zeta)
        it = iter(primes)
        scalars = {(i, j): next(it)
                   for i in cfg.labels for j in cfg.labels if i != j}
        md = rank_one_diagram(cfg, scalars)
        C = stokes_matrix_oracle(md, zeta)
        for a, b in itertools.combinations(range(len(order)), 2):
            i, j = order[a], order[b]
            npaths = len(enumerate_convex_paths(cfg, zeta, i, j))
            entry = C.block(i, j)[0][0]
            # count the monomials by greedily stripping path products
            total = Fraction(0)
            for p in enumerate_convex_paths(cfg, zeta, i, j):
                prod = Fraction(1)
                for u, v in zip(p, p[1:]):
                    prod *= scalars[(u, v)]
                total += prod
            assert entry == total
            assert npaths >= (1 if entry else 0)


# -- chambers ------------------------------------------------------------------------


def test_chamber_sample_sides():
    cfg = cfg3b()
    rays = stokes_rays(cfg)
    ray = rays[0]
    za = chamber_sample(cfg, ray, "after")
    zb = chamber_sample(cfg, ray, "before")
    assert za != zb
    for z in (za, zb):
        assert z not in rays
        zeta_order(cfg, z)  # generic by construction


def test_chamber_sample_bad_ray():
    with pytest.raises(BadRay):
        chamber_sample(cfg3b(), Direction.of(1, 1), "after")


def test_stokes_constant_on_chambers():
    rng = random.Random(406)
    from air.infrared import _mediant
    for _ in range(6):
        cfg = random_stokes_config(rng, rng.randint(2, 5))
        md = random_matrix_diagram(rng, cfg)
        rays = stokes_rays(cfg)
        for k in range(len(rays)):
            u, v = rays[k], rays[(k + 1) % len(rays)]
            z1 = _mediant(u, v)
            z2 = _mediant(u, z1)
            z3 = _mediant(z1, v)
            C1 = stokes_matrix(md, z1)
            assert stokes_matrix(md, z2) == StokesMatrix(z2, C1.order, C1.dims,
                                                         C1.blocks)
            assert stokes_matrix(md, z3) == StokesMatrix(z3, C1.order, C1.dims,
                                                         C1.blocks)


def test_wall_cross_report_two_points():
    cfg = PointConfig.of([("w1", 0, 0), ("w2", 1, 0)])
    md = rank_one_diagram(cfg, {("w1", "w2"): 3, ("w2", "w1"): 5})
    rep = wall_cross_report(md, Direction.of(1, 0))
    assert rep.before.order == ["w1", "w2"]
    assert rep.after.order == ["w2", "w1"]
    fb = rep.before.full_matrix(["w1", "w2"])
    fa = rep.after.full_matrix(["w1", "w2"])
    assert mat_eq(mat_mul(rep.connecting, fb), fa)
    assert rep.connecting == mat([[-14, 5], [-3, 1]])


def test_wall_cross_bad_ray():
    cfg = PointConfig.of([("w1", 0, 0), ("w2", 1, 0)])
    md = rank_one_diagram(cfg, {})
    with pytest.raises(BadRay):
        wall_cross_report(md, Direction.of(0, 1))


def test_wall_cross_report_sorts_the_rays_once(monkeypatch):
    import air.infrared as infrared
    md = rank_one_diagram(cfg3b(), {("w2", "w1"): 2, ("w3", "w1"): 5})
    calls = []
    real = infrared.stokes_rays

    def counted(config):
        calls.append(config)
        return real(config)
    monkeypatch.setattr(infrared, "stokes_rays", counted)
    ray = real(md.config)[0]
    rep = wall_cross_report(md, ray)
    assert len(calls) == 1
    assert rep.zeta_before == chamber_sample(md.config, ray, "before")
    assert rep.zeta_after == chamber_sample(md.config, ray, "after")


def test_wall_cross_connecting_property_random():
    rng = random.Random(407)
    for _ in range(5):
        cfg = random_stokes_config(rng, 3)
        md = random_matrix_diagram(rng, cfg, min_dim=1)
        ray = rng.choice(stokes_rays(cfg))
        rep = wall_cross_report(md, ray)
        basis = list(cfg.labels)
        fb = rep.before.full_matrix(basis)
        fa = rep.after.full_matrix(basis)
        assert mat_eq(mat_mul(rep.connecting, fb), fa)


# -- polygon traces ------------------------------------------------------------------


def test_polygon_trace_rank_one_triangle():
    cfg = PointConfig.of([("p", 0, 0), ("q", 1, 0), ("r", 0, 1)])
    md = rank_one_diagram(cfg, {("p", "q"): 2, ("q", "r"): 3, ("r", "p"): 5})
    assert polygon_trace(md, ["p", "q", "r"]) == 30
    assert polygon_trace(md, ["r", "q", "p"]) == 30  # subset, not a tour


def test_polygon_trace_zero_edge():
    cfg = PointConfig.of([("p", 0, 0), ("q", 1, 0), ("r", 0, 1)])
    md = rank_one_diagram(cfg, {("p", "q"): 2, ("q", "r"): 3})
    assert polygon_trace(md, ["p", "q", "r"]) == 0


def test_polygon_trace_not_convex():
    cfg = PointConfig.of([("p", 0, 0), ("q", 4, 0), ("r", 0, 4), ("s", 1, 1)])
    md = rank_one_diagram(cfg, {})
    with pytest.raises(NotConvexPosition):
        polygon_trace(md, ["p", "q", "r", "s"])  # s is interior
    with pytest.raises(NotConvexPosition):
        polygon_trace(md, ["p", "q"])
    with pytest.raises(NotConvexPosition):
        polygon_trace(md, ["p", "q", "q"])


def test_polygon_trace_cyclic_invariance():
    rng = random.Random(408)
    for _ in range(6):
        cfg = random_stokes_config(rng, 4)
        hull = list(cfg.labels)
        md = random_matrix_diagram(rng, cfg, min_dim=1)
        from air.exactgeom import convex_hull
        ring = convex_hull(cfg)
        if len(ring) < 3:
            continue
        base = polygon_trace(md, ring)
        # composing the boundary word from any starting vertex gives the trace
        for s in range(1, len(ring)):
            rot = ring[s:] + ring[:s]
            comp = identity(md.phi_dims[rot[0]])
            at = rot[0]
            for nxt in rot[1:] + [rot[0]]:
                comp = mat_mul(md.t(at, nxt), comp) if md.phi_dims[at] else comp
                at = nxt
            tr = sum((comp[i][i] for i in range(len(comp))), Fraction(0))
            assert tr == base


# -- filtration ----------------------------------------------------------------------


def test_fs_filtration_basic():
    md = rank_one_diagram(cfg3b(), {("w2", "w1"): 2})
    fs = fs_filtration(md, Z_UP)
    assert fs.order == ["w2", "w3", "w1"]
    assert fs.dims == [1, 1, 1]
    assert fs.C == stokes_matrix(md, Z_UP)


def test_fs_filtration_reverses():
    rng = random.Random(409)
    for _ in range(5):
        cfg = random_stokes_config(rng, 4)
        md = random_matrix_diagram(rng, cfg)
        zeta = random_generic_zeta(rng, cfg)
        fwd = fs_filtration(md, zeta)
        bwd = fs_filtration(md, Direction.of(-zeta.dx, -zeta.dy))
        assert bwd.order == fwd.order[::-1]
        assert bwd.dims == fwd.dims[::-1]
        assert sum(fwd.dims) == sum(md.phi_dims.values())


# -- serialization -------------------------------------------------------------------


def test_stokes_json_shape_and_determinism():
    md = rank_one_diagram(cfg3b(), {("w2", "w1"): Fraction(1, 2),
                                    ("w3", "w1"): 5, ("w2", "w3"): 7})
    C = stokes_matrix(md, Z_UP)
    obj = C.to_obj()
    assert obj["zeta"] == "0,1"
    assert obj["order"] == ["w2", "w3", "w1"]
    assert obj["blocks"]["w2->w1"] == [["71/2"]]  # 1/2 + 5*7
    assert C.to_json() == stokes_matrix(md, Z_UP).to_json()
    rep = wall_cross_report(md, stokes_rays(cfg3b())[0])
    assert rep.to_obj() == wall_cross_report(md, stokes_rays(cfg3b())[0]).to_obj()
