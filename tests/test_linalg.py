import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from air.homotopy import _greedy_basis
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
    shape,
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


# -- the shared elimination against one loop per routine --------------------------
#
# Each oracle below is a separate Gauss-Jordan loop, one per routine, with
# the same pivot rule: the first nonzero row at or below the current rank.


def _oracle_det(a):
    m, n = shape(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    a = [row[:] for row in a]
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result


def _oracle_rank(a):
    m, n = shape(a)
    a = [row[:] for row in a]
    rk = 0
    for col in range(n):
        piv = next((r for r in range(rk, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = 1 / a[rk][col]
        for r in range(m):
            if r != rk and a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        rk += 1
        if rk == m:
            break
    return rk


def _oracle_inverse(a):
    m, n = shape(a)
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    a = [row[:] + irow[:] for row, irow in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _oracle_solve(a, b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    m, n = shape(a)
    aug = [list(row) + [Fraction(v)] for row, v in zip(a, b)]
    pivots: List[Tuple[int, int]] = []
    rk = 0
    for col in range(n):
        piv = next((r for r in range(rk, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rk], aug[piv] = aug[piv], aug[rk]
        inv = 1 / aug[rk][col]
        aug[rk] = [x * inv for x in aug[rk]]
        for r in range(m):
            if r != rk and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rk])]
        pivots.append((rk, col))
        rk += 1
    for r in range(rk, m):
        if aug[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return x


def _oracle_greedy_basis(vectors):
    basis = []  # row-echelon shadow of the chosen vectors
    chosen = []
    for v in vectors:
        row = list(v)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if row[lead] != 0:
                f = row[lead] / b[lead]
                row = [x - f * y for x, y in zip(row, b)]
        if any(x != 0 for x in row):
            basis.append(row)
            chosen.append(v)
    return chosen


# small entries, zero half the time, so singular and rank-deficient
# matrices are common
entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def matrices(draw, rows=None, cols=None, elements=entries):
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    a = draw(st.lists(st.lists(elements, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    if r and c and draw(st.booleans()):
        # a product through a thin middle: rank at most k
        k = draw(st.integers(0, min(r, c)))
        left = draw(matrices(r, k, elements))
        right = draw(matrices(k, c, elements))
        a = mat_mul(left, right, c)
    return a


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(n, n))


@settings(max_examples=200, deadline=None)
@given(a=square_matrices())
def test_det_and_inverse_match_their_own_elimination(a):
    assert det(a) == _oracle_det(a)
    try:
        expected = _oracle_inverse(a)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            inverse(a)
    else:
        assert inverse(a) == expected


@settings(max_examples=200, deadline=None)
@given(a=matrices(), data=st.data())
def test_rank_and_solve_match_their_own_elimination(a, data):
    assert rank(a) == _oracle_rank(a)
    b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    assert solve(a, b) == _oracle_solve(a, b)
    if a and a[0]:
        # a consistent right-hand side: a combination of the columns
        x = data.draw(st.lists(entries, min_size=len(a[0]),
                               max_size=len(a[0])))
        b = [sum((u * v for u, v in zip(row, x)), Fraction(0)) for row in a]
        got = solve(a, b)
        assert got == _oracle_solve(a, b)
        assert mat_mul(a, [[v] for v in got]) == [[v] for v in b]


@settings(max_examples=200, deadline=None)
@given(a=matrices())
def test_greedy_basis_is_the_greedy_independent_subsequence(a):
    vectors = [tuple(row) for row in a]  # rows as the vectors, in order
    assert _greedy_basis(vectors) == _oracle_greedy_basis(vectors)


# -- int input: the same results, still Fractions ---------------------------------
#
# The elimination runs on integers; Fraction input is cleared row by row
# first.  On int matrices every routine must give what the Fraction oracles
# give on the same matrix read as Fractions, and return Fractions.

int_entries = st.one_of(st.just(0), st.integers(-6, 6))
# the same shapes and thin products, read back as ints
int_matrices = matrices(elements=int_entries).map(
    lambda a: [[int(x) for x in row] for row in a])


def _as_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def _all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)


@settings(max_examples=50, deadline=None)
@given(a=int_matrices, data=st.data())
@example(a=[], data=None)                       # 0 x 0
@example(a=[[], [], []], data=None)             # 3 x 0
@example(a=[[2, 4, 6], [1, 2, 3], [3, 6, 9]], data=None)  # rank 1
def test_int_input_matches_the_fraction_oracles(a, data):
    q = _as_fractions(a)
    m, n = len(a), len(a[0]) if a else 0
    assert rank(a) == _oracle_rank(q)
    assert _greedy_basis([tuple(row) for row in a]) == \
        [tuple(int(x) for x in v)
         for v in _oracle_greedy_basis([tuple(row) for row in q])]
    b = [0] * m if data is None else data.draw(
        st.lists(int_entries, min_size=m, max_size=m))
    got = solve(a, b)
    assert got == _oracle_solve(q, b)
    assert got is None or _all_fractions(got)
    if n and data is not None:
        # a consistent right-hand side: a combination of the columns
        x = data.draw(st.lists(int_entries, min_size=n, max_size=n))
        b = [sum(u * v for u, v in zip(row, x)) for row in a]
        got = solve(a, b)
        assert got == _oracle_solve(q, b) and _all_fractions(got)
        assert mat_mul(q, [[v] for v in got]) == [[Fraction(v)] for v in b]
    if m == n:
        d = det(a)
        assert type(d) is Fraction and d == _oracle_det(q)
        try:
            expected = _oracle_inverse(q)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                inverse(a)
        else:
            inv = inverse(a)
            assert inv == expected
            assert all(_all_fractions(row) for row in inv)
