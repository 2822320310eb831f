"""Small dense exact linear algebra over the rationals.

Matrices are lists of rows of Fractions or ints.  Sizes in this package are
tiny (block matrices of total dimension <= ~15).  Every elimination (det,
rank, inverse, solve, and the greedy bases and orientation signs of the web
algebra) goes through the one routine _reduce: a fraction-free (Bareiss)
elimination, exact on ints and Fractions alike.  It turns each row into
integers by exactgeom.clear_denominators and then runs on Python ints, where
each division by the previous pivot is exact.  solve and inverse divide only
when they back-substitute, and det, solve and inverse return Fractions.
mat_mul and the fraction-free programs multiply through the one loop of
mat_addmul.

Dimensions may be zero.  An r x 0 matrix is r empty rows, ``[[]] * r``, and a
0 x r matrix is ``[]``, so the row list loses the width of a matrix with no
rows.  A product whose right factor is empty therefore takes its width from
the ``cols`` argument of mat_mul.  This module is the one exact matrix kernel
of the package: the products, block layouts and JSON codec of the diagrams
and Stokes matrices all go through it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactgeom import clear_denominators, format_rational, parse_rational

Matrix = List[List[Fraction]]


class SingularMatrix(ValueError):
    pass


class MalformedMatrix(ValueError):
    """A matrix document is not a list of rows of the expected shape."""


def mat(rows) -> Matrix:
    return [[parse_rational(x) for x in row] for row in rows]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def shape(a: Matrix) -> Tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def has_shape(a: Matrix, rows: int, cols: int) -> bool:
    return len(a) == rows and all(len(r) == cols for r in a)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        a[i][j] == b[i][j] for i in range(len(a)) for j in range(len(a[0]) if a else 0)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix, cols: Optional[int] = None) -> Matrix:
    """Product a @ b.  The inner dimension is len(b); the output width is
    that of b's rows, or ``cols`` when b has no rows, which is then required
    unless a has none either."""
    q = len(b)
    r = len(b[0]) if q else cols
    if r is None and a:
        raise ValueError("a product with an empty right factor needs cols")
    for row in a:
        if len(row) != q:
            raise ValueError(f"shape mismatch: {len(a)}x{len(row)} @ {q}x{r}")
    out = [[Fraction(0)] * r for _ in a]
    mat_addmul(out, a, b)
    return out


def mat_addmul(acc: Matrix, a: Matrix, b: Matrix) -> None:
    """acc += a @ b in place, skipping zero entries; acc holds the shape of
    the product, so an empty right factor needs no width."""
    for row, o in zip(a, acc):
        for x, bk in zip(row, b):
            if x:
                for j, y in enumerate(bk):
                    if y:
                        o[j] += x * y


def mat_chain(*ms: Matrix) -> Matrix:
    """Product m1 @ m2 @ ... (rightmost acts first on column vectors)."""
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def transpose(a: Matrix) -> Matrix:
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def _reduce(a: Matrix, ncols: int) -> Tuple[List[List[int]], List[int], Fraction]:
    """Fraction-free (Bareiss) forward elimination of a copy of ``a`` over its
    first ``ncols`` columns.

    Each row is first cleared of its denominators, so the loop runs on
    Python ints.  Every entry it leaves is a minor of those rows: the
    step at pivot p turns x into (p*x - f*y) / prev, with f the entry under
    the pivot, y the pivot row's entry and prev the previous pivot, and the
    division is exact (Sylvester's identity).  The pivot of each column is its
    first nonzero entry at or below the current rank.  Returns the echelon
    rows (integers, zero below the rank within the eliminated columns), the
    pivot columns, and the sign of the row swaps over the product of the row
    multipliers: when every row holds a pivot, that times the last pivot is
    the determinant of the eliminated columns."""
    rows: List[List[int]] = []
    denom = 1
    for row in a:
        ints, d = clear_denominators(row)
        rows.append(ints)
        denom *= d
    m = len(rows)
    pivots: List[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        rk = len(pivots)
        if rk == m:
            break
        piv = next((r for r in range(rk, m) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rk:
            rows[rk], rows[piv] = rows[piv], rows[rk]
            sign = -sign
        prow = rows[rk][col:]
        p = prow[0]
        # rows below the pivot are zero left of col, so only columns col.. change
        for r in range(rk + 1, m):
            row = rows[r]
            f = row[col]
            if f:
                row[col:] = [(p * x - f * y) // prev
                             for x, y in zip(row[col:], prow)]
            elif p != prev:
                row[col:] = [p * x // prev for x in row[col:]]
        prev = p
        pivots.append(col)
    return rows, pivots, Fraction(sign, denom)


def _back_substitute(rows: List[List[int]], pivots: List[int], n: int,
                     j: int) -> List[Fraction]:
    """The x with x[c] = 0 off the pivot columns that solves the pivot rows
    of _reduce's echelon rows against their column j.  With d the last pivot,
    d*x is an integer vector (Cramer's rule), built from the bottom row up
    with exact divisions; only the entries of x are Fractions."""
    k = len(pivots)
    d = rows[k - 1][pivots[-1]] if k else 1
    y = [0] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        acc = d * row[j]
        for t in range(i + 1, k):
            acc -= row[pivots[t]] * y[t]
        y[i] = acc // row[pivots[i]]
    x = [Fraction(0)] * n
    for c, v in zip(pivots, y):
        x[c] = Fraction(v, d)
    return x


def det(a: Matrix) -> Fraction:
    m, n = shape(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, scale = _reduce(a, n)
    if len(pivots) < n:
        return Fraction(0)
    return scale * rows[-1][-1] if n else scale


def rank(a: Matrix) -> int:
    return len(_reduce(a, shape(a)[1])[1])


def inverse(a: Matrix) -> Matrix:
    m, n = shape(a)
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    aug = [row + irow for row, irow in zip(a, identity(n))]
    rows, pivots, _ = _reduce(aug, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return transpose([_back_substitute(rows, pivots, n, n + j)
                      for j in range(n)])


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of A x = b, or None if inconsistent (A need not be square);
    free variables are 0."""
    n = shape(a)[1]
    rows, pivots, _ = _reduce([list(row) + [parse_rational(v)]
                               for row, v in zip(a, b)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    return _back_substitute(rows, pivots, n, n)


def charpoly(a: Matrix) -> List[Fraction]:
    """Coefficients of det(tI - A), descending: [1, c_1, ..., c_n].

    Faddeev-LeVerrier recursion, exact over Fraction.
    """
    m, n = shape(a)
    if m != n:
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = [Fraction(1)]
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(a, mk)
        ck = -Fraction(sum(mk[i][i] for i in range(n)), k)
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return coeffs


# -- block matrices ---------------------------------------------------------

def _block_layout(order: Sequence[str],
                  dims: Dict[str, int]) -> Tuple[Dict[str, int], int]:
    """The first row of each label's block, and the total dimension, when the
    blocks are stacked in the given order."""
    offset: Dict[str, int] = {}
    at = 0
    for l in order:
        offset[l] = at
        at += dims[l]
    return offset, at


def block_matrix(order: Sequence[str], dims: Dict[str, int],
                 block: Callable[[str, str], Optional[Matrix]]) -> Matrix:
    """Assemble a square block matrix over the given label order.

    ``block(src, tgt)`` returns the (tgt, src) block or None for a zero block;
    diagonal blocks default to identity when block() returns None for them.
    """
    offset, total = _block_layout(order, dims)
    out = zeros(total, total)
    for src in order:
        for tgt in order:
            blk = block(src, tgt)
            if blk is None:
                if src == tgt:
                    blk = identity(dims[src])
                else:
                    continue
            for i in range(dims[tgt]):
                for j in range(dims[src]):
                    out[offset[tgt] + i][offset[src] + j] = blk[i][j]
    return out


def block_of(full: Matrix, order: Sequence[str], dims: Dict[str, int],
             src: str, tgt: str) -> Matrix:
    offset, _ = _block_layout(order, dims)
    return [[full[offset[tgt] + i][offset[src] + j] for j in range(dims[src])]
            for i in range(dims[tgt])]


# -- JSON helpers -----------------------------------------------------------

def mat_to_obj(a: Matrix) -> list:
    return [[format_rational(x) for x in row] for row in a]


def mat_from_obj(obj, rows: Optional[int] = None, cols: Optional[int] = None,
                 name: str = "matrix") -> Matrix:
    """Parse a list of rows of rationals, checking the shape where rows and
    cols are given; otherwise the caller checks it, as a diagram's
    `__post_init__` does."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise MalformedMatrix(f"{name} must be a list of rows")
    if rows is not None and cols is not None and \
            not has_shape(obj, rows, cols):
        raise MalformedMatrix(f"{name} must be a {rows}x{cols} matrix")
    return mat(obj)
