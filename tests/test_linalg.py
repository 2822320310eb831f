import random
from fractions import Fraction

import pytest

from air.linalg import (
    SingularMatrix,
    block_matrix,
    block_of,
    charpoly,
    det,
    identity,
    inverse,
    mat,
    mat_chain,
    mat_eq,
    mat_from_obj,
    mat_mul,
    mat_sub,
    mat_to_obj,
    rank,
    zeros,
    solve,
    transpose,
)


def _random_matrix(rng, n, m=None, lo=-5, hi=5):
    m = n if m is None else m
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)]


def test_mat_parses_strings():
    a = mat([["1/2", 1], [0, "-3"]])
    assert a[0][0] == Fraction(1, 2)
    assert a[1][1] == Fraction(-3)


def test_mul_and_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n)
        if det(a) == 0:
            with pytest.raises(SingularMatrix):
                inverse(a)
            continue
        assert mat_eq(mat_mul(a, inverse(a)), identity(n))
        assert mat_eq(mat_mul(inverse(a), a), identity(n))


def test_det_multiplicative():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 4)
        a, b = _random_matrix(rng, n), _random_matrix(rng, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_known_values():
    assert det(mat([[2]])) == 2
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det(identity(4)) == 1


def test_rank():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[1, 0, 1], [0, 1, 1]])) == 2
    assert rank([[Fraction(0)] * 3]) == 0


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 1], [1, -1]])
    x = solve(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    # inconsistent
    a = mat([[1, 1], [2, 2]])
    assert solve(a, [Fraction(1), Fraction(3)]) is None
    # underdetermined: any valid solution is fine
    a = mat([[1, 1]])
    x = solve(a, [Fraction(5)])
    assert x is not None and x[0] + x[1] == 5


def test_charpoly_matches_det_and_trace():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n)
        cp = charpoly(a)
        assert len(cp) == n + 1
        assert cp[0] == 1
        tr = sum(a[i][i] for i in range(n))
        assert cp[1] == -tr
        assert cp[-1] == (-1) ** n * det(a)


def test_charpoly_cayley_hamilton():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n)
        cp = charpoly(a)
        acc = [[Fraction(0)] * n for _ in range(n)]
        p = identity(n)
        for c in reversed(cp):  # constant term first, p walks up the powers
            acc = [[x + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, p)]
            p = mat_mul(p, a)
        assert mat_eq(acc, [[Fraction(0)] * n for _ in range(n)])


def test_transpose_and_chain():
    a = mat([[1, 2, 3], [4, 5, 6]])
    assert transpose(a) == mat([[1, 4], [2, 5], [3, 6]])
    b = mat([[1, 0], [0, 2], [1, 1]])
    c = mat([[1, 1], [0, 1]])
    assert mat_eq(mat_chain(a, b, c), mat_mul(mat_mul(a, b), c))


def test_block_matrix_assembly_and_slicing():
    order = ["u", "v"]
    dims = {"u": 1, "v": 2}
    blocks = {("u", "v"): mat([[3], [4]])}
    full = block_matrix(order, dims, lambda s, t: blocks.get((s, t)))
    assert full == mat([[1, 0, 0], [3, 1, 0], [4, 0, 1]])
    assert block_of(full, order, dims, "u", "v") == mat([[3], [4]])
    assert block_of(full, order, dims, "v", "v") == identity(2)


def test_block_layout_with_a_zero_dimensional_label_in_the_middle():
    order = ["u", "z", "v"]
    dims = {"u": 1, "z": 0, "v": 2}
    blocks = {("u", "v"): mat([[3], [4]]), ("u", "z"): [], ("z", "v"): [[], []]}
    full = block_matrix(order, dims, lambda s, t: blocks.get((s, t)))
    assert full == mat([[1, 0, 0], [3, 1, 0], [4, 0, 1]])
    assert block_of(full, order, dims, "u", "v") == mat([[3], [4]])
    assert block_of(full, order, dims, "v", "v") == identity(2)
    assert block_of(full, order, dims, "z", "v") == [[], []]
    assert block_of(full, order, dims, "u", "z") == []
    assert block_of(full, order, dims, "z", "z") == []


def test_products_with_zero_dimensions():
    b = mat([[1, 2, 3], [4, 5, 6]])
    assert mat_mul([], b) == []                        # 0x2 @ 2x3
    assert mat_mul([[], []], [], 3) == zeros(2, 3)     # 2x0 @ 0x3
    with pytest.raises(ValueError):
        mat_mul([[], []], [])                          # width unknown


def test_matrix_json_obj_round_trip():
    a = mat([["1/3", 2], [0, "-5/7"]])
    assert mat_from_obj(mat_to_obj(a)) == a
    assert mat_to_obj(a)[0][0] == "1/3"


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mat_mul(mat([[1, 2]]), mat([[1, 2]]))
    assert mat_sub(mat([[3]]), mat([[1]])) == mat([[2]])
