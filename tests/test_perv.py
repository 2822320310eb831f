"""GMV diagrams, matrix diagrams, transports, braid mutations."""

import random
from fractions import Fraction

import pytest

from air.exactgeom import DegenerateConfig, PointConfig
from air.linalg import identity, mat
from air.perv import (
    BadGenerator,
    Detour,
    GmvDiagram,
    InvalidGmv,
    MalformedDiagram,
    MalformedPath,
    MatrixDiagram,
    PathWord,
    Straight,
    braid_mutate,
    braid_word,
    gmv_to_matrix_diagram,
    monodromy_charpoly,
    realize_matrix_diagram,
    total_monodromy,
    transport,
    validate_gmv,
)

from conftest import random_generic_config, random_matrix_diagram

CFG2 = PointConfig.of([("u", 0, 0), ("v", 3, 1)])
CFG3 = PointConfig.of([("u", 0, 0), ("v", 3, 1), ("w", 1, 4)])


def scalar_gmv(config, pairs, psi_dim=1):
    """Rank-1 diagram: pairs maps label -> (a entry, a' entry)."""
    a = {l: [[Fraction(x)]] for l, (x, _) in pairs.items()}
    ap = {l: [[Fraction(y)]] for l, (_, y) in pairs.items()}
    dims = {l: 1 for l in pairs}
    return GmvDiagram(config, psi_dim, dims, a, ap)


# -- validation -------------------------------------------------------------------

def test_all_phi_zero_is_valid():
    g = GmvDiagram(CFG2, 3, {"u": 0, "v": 0},
                   {"u": [[], [], []], "v": [[], [], []]},
                   {"u": [], "v": []})
    rep = validate_gmv(g)
    assert rep.ok
    assert rep.det_psi_side == {"u": 1, "v": 1}
    assert rep.det_phi_side == {"u": 1, "v": 1}


def test_unit_pairing_is_invalid():
    one = PointConfig.of([("u", 0, 0)])
    g = scalar_gmv(one, {"u": (1, 1)})
    rep = validate_gmv(g)
    assert not rep.ok and rep.violations == ["u"]
    assert rep.det_phi_side["u"] == 0
    with pytest.raises(InvalidGmv):
        gmv_to_matrix_diagram(g)


def test_half_pairing_is_valid():
    one = PointConfig.of([("u", 0, 0)])
    g = scalar_gmv(one, {"u": (1, Fraction(1, 2))})
    rep = validate_gmv(g)
    assert rep.ok
    assert rep.det_phi_side["u"] == Fraction(1, 2)


def test_shape_validation():
    with pytest.raises(ValueError):
        GmvDiagram(CFG2, 1, {"u": 1, "v": 1},
                   {"u": [[Fraction(1)]], "v": [[Fraction(1), Fraction(2)]]},
                   {"u": [[Fraction(0)]], "v": [[Fraction(0)]]})


# -- conversion -------------------------------------------------------------------

def test_rank_one_transports_are_pairings():
    # a_i = e_i in Q^3, a'_j = row of s_jk: t_ij = s_ji
    s = {"u": [2, 3, 5], "v": [7, 11, 13], "w": [17, 19, 23]}
    labels = CFG3.labels
    a = {l: [[Fraction(1 if r == i else 0)] for r in range(3)]
         for i, l in enumerate(labels)}
    ap = {l: [[Fraction(x) for x in s[l]]] for l in labels}
    g = GmvDiagram(CFG3, 3, {l: 1 for l in labels}, a, ap)
    md = gmv_to_matrix_diagram(g)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if li != lj:
                assert md.t(li, lj) == [[Fraction(s[lj][i])]]
        assert md.monodromies[li] == [[1 - Fraction(s[li][i])]]


def test_zero_phi_gives_empty_transports():
    g = GmvDiagram(CFG2, 2, {"u": 1, "v": 0},
                   {"u": [[Fraction(1)], [Fraction(0)]], "v": [[], []]},
                   {"u": [[Fraction(0), Fraction(1, 3)]], "v": []})
    md = gmv_to_matrix_diagram(g)
    assert md.t("u", "v") == []          # 0 x 1
    assert md.t("v", "u") == [[]]        # 1 x 0
    assert md.monodromies["v"] == []


def test_single_point_diagram():
    one = PointConfig.of([("u", 0, 0)])
    g = scalar_gmv(one, {"u": (2, Fraction(1, 4))})
    md = gmv_to_matrix_diagram(g)
    assert md.transports == {}
    assert md.monodromies["u"] == [[Fraction(1, 2)]]


def test_conversion_monodromies_always_invertible():
    rng = random.Random(3)
    for _ in range(20):
        cfg = random_generic_config(rng, rng.randint(1, 4))
        md = random_matrix_diagram(rng, cfg)
        g = realize_matrix_diagram(md)
        assert validate_gmv(g).ok
        back = gmv_to_matrix_diagram(g, spider_order=md.order)
        assert back.transports == md.transports
        assert back.monodromies == md.monodromies


# -- transport --------------------------------------------------------------------

def test_straight_transport_is_the_table_entry():
    rng = random.Random(4)
    md = random_matrix_diagram(rng, CFG3, max_dim=2, min_dim=1)
    path = PathWord("u", "v", [Straight("u", "v")])
    assert transport(md, path) == md.t("u", "v")


def test_left_detour_correction():
    rng = random.Random(5)
    md = random_matrix_diagram(rng, CFG3, max_dim=2, min_dim=1)
    straight = transport(md, PathWord("u", "v", [Straight("u", "v")]))
    left = transport(md, PathWord("u", "v", [Detour("u", "v", "w", "left")]))
    nw, nv, nu = md.dim("w"), md.dim("v"), md.dim("u")
    corr = [[sum(md.t("w", "v")[i][k] * md.t("u", "w")[k][j]
                 for k in range(nw)) for j in range(nu)] for i in range(nv)]
    assert [[l - s for l, s in zip(rl, rs)] for rl, rs in zip(left, straight)] \
        == corr


def test_left_then_right_rewrites_cancel():
    rng = random.Random(6)
    md = random_matrix_diagram(rng, CFG3, max_dim=2, min_dim=1)
    straight = transport(md, PathWord("u", "v", [Straight("u", "v")]))
    left = transport(md, PathWord("u", "v", [Detour("u", "v", "w", "left")]))
    right = transport(md, PathWord("u", "v", [Detour("u", "v", "w", "right")]))
    assert [[l + r for l, r in zip(rl, rr)] for rl, rr in zip(left, right)] \
        == [[2 * s for s in row] for row in straight]


def test_round_trip_composition():
    rng = random.Random(7)
    md = random_matrix_diagram(rng, CFG3, max_dim=2, min_dim=1)
    path = PathWord("u", "u", [Straight("u", "v"), Straight("v", "u")])
    got = transport(md, path)
    nu, nv = md.dim("u"), md.dim("v")
    exp = [[sum(md.t("v", "u")[i][k] * md.t("u", "v")[k][j]
                for k in range(nv)) for j in range(nu)] for i in range(nu)]
    assert got == exp


def test_malformed_paths_rejected():
    rng = random.Random(8)
    md = random_matrix_diagram(rng, CFG3)
    with pytest.raises(MalformedPath):
        transport(md, PathWord("u", "v", []))
    with pytest.raises(MalformedPath):
        transport(md, PathWord("u", "v", [Straight("u", "w")]))
    with pytest.raises(MalformedPath):
        transport(md, PathWord("u", "v", [Straight("v", "u")]))
    with pytest.raises(MalformedPath):
        transport(md, PathWord("u", "v", [Detour("u", "v", "u", "left")]))
    with pytest.raises(MalformedPath):
        transport(md, PathWord("u", "v", [Detour("u", "v", "w", "up")]))


def test_blocked_segment_rejected():
    cfg = PointConfig.of([("u", 0, 0), ("m", 1, 1), ("v", 3, 3), ("x", 5, 0)])
    dims = {l: 1 for l in cfg.labels}
    mono = {l: [[Fraction(2)]] for l in cfg.labels}
    trans = {(i, j): [[Fraction(1)]] for i in cfg.labels for j in cfg.labels
             if i != j}
    with pytest.raises(DegenerateConfig):
        MatrixDiagram(cfg, dims, mono, trans)


# -- braid mutations ---------------------------------------------------------------

def test_generator_bounds():
    rng = random.Random(9)
    md = random_matrix_diagram(rng, CFG3)
    for k in (0, 3, -1):
        with pytest.raises(BadGenerator):
            braid_mutate(md, k)


def test_sigma_and_inverse_cancel():
    rng = random.Random(10)
    for _ in range(25):
        cfg = random_generic_config(rng, 3)
        md = random_matrix_diagram(rng, cfg)
        for k in (1, 2):
            for first_inverse in (False, True):
                w = [(k, first_inverse), (k, not first_inverse)]
                back = braid_word(md.copy(), w)
                assert back.order == md.order
                assert back.transports == md.transports
                assert back.monodromies == md.monodromies


def test_braid_relation():
    rng = random.Random(11)
    for _ in range(25):
        cfg = random_generic_config(rng, 3)
        md = random_matrix_diagram(rng, cfg)
        lhs = braid_word(md.copy(), [(1, False), (2, False), (1, False)])
        rhs = braid_word(md.copy(), [(2, False), (1, False), (2, False)])
        assert lhs.order == rhs.order
        assert lhs.transports == rhs.transports


def test_distant_generators_commute():
    rng = random.Random(12)
    cfg = random_generic_config(rng, 4)
    md = random_matrix_diagram(rng, cfg)
    ab = braid_word(md.copy(), [(1, False), (3, False)])
    ba = braid_word(md.copy(), [(3, False), (1, False)])
    assert ab.order == ba.order and ab.transports == ba.transports


def test_mutation_changes_only_expected_entries():
    rng = random.Random(13)
    cfg = random_generic_config(rng, 4)
    md = random_matrix_diagram(rng, cfg, min_dim=1)
    P, Q = md.order[0], md.order[1]
    out = braid_mutate(md, 1)
    assert out.monodromies == md.monodromies
    for (i, j), t in md.transports.items():
        if Q not in (i, j):
            assert out.transports[(i, j)] == t


# -- total monodromy ---------------------------------------------------------------

def test_zero_transports_block_diagonal():
    dims = {"u": 1, "v": 2}
    mono = {"u": [[Fraction(3)]], "v": mat([["1", "1"], ["0", "1/2"]])}
    md = MatrixDiagram(CFG2, dims, mono, {})
    got = total_monodromy(md)
    assert got == mat([["3", "0", "0"], ["0", "1", "1"], ["0", "0", "1/2"]])


def test_single_point_total_monodromy():
    one = PointConfig.of([("u", 0, 0)])
    md = MatrixDiagram(one, {"u": 2}, {"u": mat([["0", "1"], ["1", "0"]])}, {})
    assert total_monodromy(md) == mat([["0", "1"], ["1", "0"]])


def test_charpoly_invariant_under_mutations():
    rng = random.Random(14)
    for _ in range(20):
        cfg = random_generic_config(rng, 3)
        md = random_matrix_diagram(rng, cfg)
        base = monodromy_charpoly(md)
        cur = md
        for _ in range(4):
            k = rng.randint(1, 2)
            cur = braid_mutate(cur, k, inverse=rng.random() < 0.5)
            assert monodromy_charpoly(cur) == base


def test_two_point_scalar_example():
    dims = {"u": 1, "v": 1}
    mono = {"u": [[Fraction(2)]], "v": [[Fraction(3)]]}
    trans = {("u", "v"): [[Fraction(5)]], ("v", "u"): [[Fraction(7)]]}
    md = MatrixDiagram(CFG2, dims, mono, trans)
    base = monodromy_charpoly(md)
    assert monodromy_charpoly(braid_mutate(md, 1)) == base
    assert monodromy_charpoly(braid_mutate(md, 1, inverse=True)) == base


# -- serialization -----------------------------------------------------------------

def test_matrix_diagram_json_round_trip():
    rng = random.Random(15)
    cfg = random_generic_config(rng, 3)
    md = random_matrix_diagram(rng, cfg)
    md = braid_mutate(md, 1)  # non-trivial order
    back = MatrixDiagram.from_json(md.to_json())
    assert back.order == md.order
    assert back.phi_dims == md.phi_dims
    assert back.monodromies == md.monodromies
    assert back.transports == md.transports
    assert md.to_json() == back.to_json()


def test_gmv_json_round_trip():
    rng = random.Random(16)
    cfg = random_generic_config(rng, 3)
    md = random_matrix_diagram(rng, cfg)
    g = realize_matrix_diagram(md)
    back = GmvDiagram.from_json(g.to_json())
    assert back.psi_dim == g.psi_dim
    assert back.a == g.a and back.a_prime == g.a_prime
    assert back.to_json() == g.to_json()


def test_malformed_documents_name_what_is_missing():
    md = random_matrix_diagram(random.Random(17), CFG3).to_obj()
    g = realize_matrix_diagram(MatrixDiagram.from_obj(md)).to_obj()
    bare = {"points": md["points"]}
    with pytest.raises(MalformedDiagram, match="'phi_dims'"):
        MatrixDiagram.from_obj(bare)
    with pytest.raises(MalformedDiagram, match="'psi_dim'"):
        GmvDiagram.from_obj(bare)
    with pytest.raises(MalformedDiagram, match="JSON object"):
        MatrixDiagram.from_obj([])
    del md["monodromies"]["w"]
    with pytest.raises(MalformedDiagram, match="monodromies lacks key 'w'"):
        MatrixDiagram.from_obj(md)
    del g["a_prime"]["u"]
    with pytest.raises(MalformedDiagram, match="a_prime lacks key 'u'"):
        GmvDiagram.from_obj(g)


def test_gmv_dimensions_must_be_integers():
    md = random_matrix_diagram(random.Random(17), CFG3)
    g = realize_matrix_diagram(md).to_obj()
    for bad in ("3", True, 3.0):
        with pytest.raises(MalformedDiagram, match="psi_dim"):
            GmvDiagram.from_obj(dict(g, psi_dim=bad))
    g["phi_dims"] = dict(g["phi_dims"], u=[1])
    with pytest.raises(MalformedDiagram, match=r"phi_dims\[u\]"):
        GmvDiagram.from_obj(g)


def test_each_matrix_shape_is_checked_once_where_the_diagram_is_built(
        monkeypatch):
    """Documents leave every shape to `__post_init__`, which names the
    entry in a MalformedDiagram: one shape check per matrix."""
    import air.linalg
    import air.perv
    md = random_matrix_diagram(random.Random(19), CFG3)
    doc = md.to_obj()
    g = realize_matrix_diagram(md).to_obj()
    n = len(CFG3.labels)
    checks = []
    has_shape = air.linalg.has_shape

    def counted(*args):
        checks.append(args[1:])
        return has_shape(*args)
    monkeypatch.setattr(air.linalg, "has_shape", counted)
    monkeypatch.setattr(air.perv, "has_shape", counted)
    MatrixDiagram.from_obj(doc)
    assert len(checks) == n + n * (n - 1)  # monodromies, then transports
    checks.clear()
    GmvDiagram.from_obj(g)
    assert len(checks) == 2 * n
    l = CFG3.labels[0]
    bad = dict(doc, monodromies=dict(doc["monodromies"], **{l: [["1"], []]}))
    with pytest.raises(MalformedDiagram, match=rf"monodromies\[{l}\]"):
        MatrixDiagram.from_obj(bad)
    i, j = CFG3.labels[1], CFG3.labels[0]
    bad = dict(doc, transports={f"{i}->{j}": [["1"]] * (md.phi_dims[j] + 1)})
    with pytest.raises(MalformedDiagram, match=rf"transports\[{i}->{j}\]"):
        MatrixDiagram.from_obj(bad)
    bad = dict(g, a=dict(g["a"], **{l: [["1", "2", "3"]] * (g["psi_dim"] + 1)}))
    with pytest.raises(MalformedDiagram, match=rf"a\[{l}\]"):
        GmvDiagram.from_obj(bad)


@pytest.mark.parametrize("key", ["u->x", "u-v", "u->v->w"])
def test_malformed_transport_keys_rejected(key):
    md = random_matrix_diagram(random.Random(18), CFG3).to_obj()
    md["transports"] = {key: []}
    with pytest.raises(MalformedDiagram, match="transport key"):
        MatrixDiagram.from_obj(md)
