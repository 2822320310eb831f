import hashlib
import random
from fractions import Fraction

from air.lp import LinearSystem

from conftest import deadline


def _check(sys_builder, nvars, expect_feasible):
    sys = LinearSystem(nvars)
    constraints = sys_builder(sys)
    x = sys.feasible_point()
    if not expect_feasible:
        assert x is None
        return None
    assert x is not None
    for kind, coeffs, rhs in constraints:
        val = sum(c * xi for c, xi in zip(coeffs, x))
        if kind == "lt":
            assert val < rhs
        elif kind == "le":
            assert val <= rhs
        else:
            assert val == rhs
    return x


def test_simple_box():
    def build(sys):
        cons = []
        for i in range(2):
            e = [Fraction(0)] * 2
            e[i] = Fraction(1)
            sys.add_lt(e, 1)
            cons.append(("lt", list(e), Fraction(1)))
            e2 = [-c for c in e]
            sys.add_lt(e2, 0)
            cons.append(("lt", e2, Fraction(0)))
        return cons

    x = _check(build, 2, True)
    assert all(0 < v < 1 for v in x)


def test_strictness_matters():
    # x <= 0 and x >= 0 meet only at 0; making one strict empties it
    sys = LinearSystem(1)
    sys.add_le([1], 0)
    sys.add_le([-1], 0)
    assert sys.feasible_point() == [Fraction(0)]

    sys = LinearSystem(1)
    sys.add_lt([1], 0)
    sys.add_le([-1], 0)
    assert sys.feasible_point() is None


def test_equalities_substituted():
    sys = LinearSystem(3)
    sys.add_eq([1, 1, 1], 6)
    sys.add_eq([1, -1, 0], 0)
    sys.add_lt([0, 0, -1], 0)  # x2 > 0
    x = sys.feasible_point()
    assert x is not None
    assert x[0] == x[1]
    assert sum(x) == 6
    assert x[2] > 0


def test_inconsistent_equalities():
    sys = LinearSystem(2)
    sys.add_eq([1, 1], 1)
    sys.add_eq([2, 2], 3)
    assert sys.feasible_point() is None


def test_unconstrained_variables_default():
    sys = LinearSystem(3)
    sys.add_lt([0, -1, 0], -2)  # x1 > 2
    x = sys.feasible_point()
    assert x is not None
    assert x[1] > 2
    assert x[0] == 0 and x[2] == 0


def test_random_systems_agree_with_rejection_sampling():
    rng = random.Random(11)
    for trial in range(60):
        nv = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
            rhs = Fraction(rng.randint(-6, 6))
            strict = rng.random() < 0.5
            rows.append((coeffs, rhs, strict))
        sys = LinearSystem(nv)
        for coeffs, rhs, strict in rows:
            (sys.add_lt if strict else sys.add_le)(coeffs, rhs)
        x = sys.feasible_point()
        if x is not None:
            for coeffs, rhs, strict in rows:
                val = sum(c * xi for c, xi in zip(coeffs, x))
                assert val < rhs if strict else val <= rhs
        else:
            # no rational point on a modest grid may satisfy the system
            for _ in range(400):
                cand = [Fraction(rng.randint(-14, 14), 2) for _ in range(nv)]
                ok = all(
                    (sum(c * xi for c, xi in zip(coeffs, cand)) < rhs)
                    if strict
                    else (sum(c * xi for c, xi in zip(coeffs, cand)) <= rhs)
                    for coeffs, rhs, strict in rows
                )
                assert not ok, f"trial {trial}: solver said infeasible, found {cand}"


def test_lift_style_system():
    # heights h on a square forcing the diagonal a-c to be the lower crease:
    # plane through a, b, c must lie strictly below d, and symmetrically
    sys = LinearSystem(4)
    # h_d strictly above the plane of (a, b, c): for the unit square
    # a=(0,0) b=(1,0) c=(1,1) d=(0,1), plane value at d is h_a - h_b + h_c
    sys.add_lt([1, -1, 1, -1], 0)
    x = sys.feasible_point()
    assert x is not None
    ha, hb, hc, hd = x
    assert ha - hb + hc < hd


# 9 inequalities in 5 variables on which Fourier-Motzkin elimination grew
# without bound (no answer in 60 s)
_HARD = [
    ("lt", [0, -3, -2, 2, 3], 2),
    ("le", [-2, -1, 2, 3, -2], -3),
    ("le", [2, 3, -2, -3, -3], -3),
    ("lt", [-1, 1, 0, -3, 0], -1),
    ("lt", [1, -2, -2, 1, -3], -1),
    ("le", [1, 2, 1, 1, 1], 3),
    ("le", [0, -1, 3, 0, -3], -2),
    ("lt", [3, -2, -2, -3, -2], 2),
    ("le", [-3, 3, -1, -3, -1], -4),
]


def test_hard_system_is_infeasible_with_a_farkas_certificate():
    # y >= 0 with y.A = 0 and y.b < 0: no x has A x <= b, strict or not
    y = [488, 220, 246, 423, 0, 371, 219, 0, 0]
    assert [sum(yi * row[j] for yi, (_, row, _) in zip(y, _HARD))
            for j in range(5)] == [0] * 5
    assert sum(yi * rhs for yi, (_, _, rhs) in zip(y, _HARD)) == -170
    sys = LinearSystem(5)
    for kind, coeffs, rhs in _HARD:
        getattr(sys, "add_" + kind)(coeffs, rhs)
    with deadline(10):
        assert sys.feasible_point() is None


def _draws(rng, trials):
    """Random systems: 2-6 variables, 1-9 rows of small integers, each row
    le, lt or eq."""
    for _ in range(trials):
        n = rng.randint(2, 6)
        rows = []
        for _ in range(rng.randint(1, 9)):
            kind = rng.choice(("le", "lt", "eq"))
            rows.append((kind, [rng.randint(-3, 3) for _ in range(n)],
                         rng.randint(-4, 4)))
        yield n, rows


# sha256 of the feasible (1) / infeasible (0) pattern of _draws(Random(5),
# 300), recorded with the Fourier-Motzkin solver: 209 feasible, 91 not
DECISIONS = "96ddaed797fe03cee641e6a43d2c0922f2644450ac8ff1d515e1a57b9dd5fa58"


def test_seeded_decisions_and_witnesses():
    pattern = ""
    for n, rows in _draws(random.Random(5), 300):
        sys = LinearSystem(n)
        for kind, coeffs, rhs in rows:
            getattr(sys, "add_" + kind)(coeffs, rhs)
        x = sys.feasible_point()
        pattern += "0" if x is None else "1"
        if x is not None:
            for kind, coeffs, rhs in rows:
                val = sum(c * xi for c, xi in zip(coeffs, x))
                assert {"lt": val < rhs, "le": val <= rhs,
                        "eq": val == rhs}[kind]
    assert pattern.count("0") == 91
    assert hashlib.sha256(pattern.encode()).hexdigest() == DECISIONS
