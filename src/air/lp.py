"""Exact feasibility for small linear systems with strict rows.

Regularity of a subdivision asks whether a system of equalities (marks on a
cell's lifted plane), strict folds across interior edges and rows that keep
the unused points above their cells has a solution (see secondary.py).
Floating-point LP cannot decide the strict rows; this module decides them
exactly, with a fraction-free simplex method under Bland's rule (Bland, Math.
Oper. Res. 2, 1977; Chvatal, Linear Programming, 1983, ch. 3).

- Each row becomes its primitive integer multiple (exactgeom.primitive), so
  the tableau holds ints.  A strict row a.x < b becomes a.x + t <= b with
  one common t >= 0.
- The x are free.  Each enters the basis by a Gauss-Jordan pivot, on the
  equality rows first; a row that defines an x leaves the ratio test.  An
  equality row left without x must read 0 = 0.  An x that no row constrains
  stays nonbasic and reads 0.
- Phase one: Chvatal's one auxiliary variable clears the negative right-hand
  sides; if it stays basic at level 0 it is pivoted out.
- Phase two, when there are strict rows: maximise t under t <= 1.  The
  system is feasible iff t > 0, so phase two stops at the first basis with
  t > 0.
- Pivots are Bareiss steps (as in linalg._reduce): the tableau is D times
  the rational one, with D the last pivot, and each step divides exactly by
  the previous D.  D is kept positive.

Worst case: Bland's rule never returns to a basis, so each phase ends on
every input after at most C(N + m, m) pivots for N nonbasic columns and m
rows.  That bound is exponential, and Bland's rule can take exponentially
many pivots (Avis and Chvatal, Math. Prog. Study 8, 1978).  Every tableau
entry is a minor of the integer rows (Edmonds, J. Res. NBS 71B, 1967), so
numbers grow only as the Hadamard bound allows.  The systems here have one
variable per point of a planar configuration and about one row per edge and
per point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exactgeom import parse_rational, primitive


def _int_row(coeffs: Sequence, rhs) -> List[int]:
    """The primitive integer multiple of the row, its right-hand side last:
    the same for every positive multiple of the row.  Strings and Fractions
    go through parse_rational."""
    return primitive([c if type(c) is int else parse_rational(c)
                      for c in (*coeffs, rhs)])


class LinearSystem:
    """Collect constraints on x[0..nvars-1], then ask for a feasible point."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._rows: List[Tuple[List[int], str]] = []

    def add_le(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((_int_row(coeffs, rhs), "le"))

    def add_lt(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((_int_row(coeffs, rhs), "lt"))

    def add_eq(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((_int_row(coeffs, rhs), "eq"))

    def feasible_point(self) -> Optional[List[Fraction]]:
        """A point satisfying every constraint, or None if infeasible."""
        return _Tableau(self.nvars, self._rows).solve()


class _Tableau:
    """Rows hold D times the coefficients of the nonbasic variables, then D
    times the right-hand side: basic + sum(T[j] / D * nonbasic[j]) = T[-1] / D.

    Variables are numbered x[0..n-1], then t (n), then one slack per row
    (n + 1 + i; for an equality row it is fixed at 0), the slack of t <= 1
    (n + 1 + m) and the auxiliary (n + 2 + m).  Objective rows, and rows that
    say nothing, have basic variable -1; a variable numbered n or more is
    nonnegative, and Bland's rule orders by these numbers.
    """

    def __init__(self, n: int, rows: Sequence[Tuple[List[int], str]]):
        self.n = n
        self.kinds = [kind for _, kind in rows]
        self.strict = "lt" in self.kinds
        self.T = [r[:n] + [int(kind == "lt")] + r[n:] for r, kind in rows]
        self.basic = [n + 1 + i for i in range(len(rows))]
        self.cols = list(range(n + 1))
        self.D = 1
        if self.strict:  # t <= 1
            self._add_row([0] * n + [1, 1], n + 1 + len(rows))
        self.obj = self._add_row([0] * n + [-1, 0], -1)  # maximise t

    def _add_row(self, row: List[int], var: int) -> int:
        self.T.append(row)
        self.basic.append(var)
        return len(self.T) - 1

    def _drop_col(self, c: int) -> None:
        del self.cols[c]
        for row in self.T:
            del row[c]

    def _pivot(self, r: int, c: int) -> None:
        T, D = self.T, self.D
        pr = T[r]
        p = pr[c]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                T[i] = [(p * a - f * b) // D for a, b in zip(row, pr)]
                T[i][c] = -f
        pr[c] = D
        self.basic[r], self.cols[c] = self.cols[c], self.basic[r]
        if p < 0:
            for row in T:
                row[:] = [-a for a in row]
        self.D = abs(p)

    def _bland_step(self, o: int) -> bool:
        """One pivot that does not lower objective row o, by Bland's rule;
        False if o is at its optimum."""
        T, basic, n = self.T, self.basic, self.n
        enter = [j for j, a in enumerate(T[o][:-1]) if a < 0]
        if not enter:
            return False
        c = min(enter, key=self.cols.__getitem__)
        r = min((i for i, b in enumerate(basic) if b >= n and T[i][c] > 0),
                key=lambda i: (Fraction(T[i][-1], T[i][c]), basic[i]))
        self._pivot(r, c)
        return True

    def solve(self) -> Optional[List[Fraction]]:
        n, T, basic = self.n, self.T, self.basic
        # free variables: the equality rows first, each x or 0 = 0
        for i, kind in enumerate(self.kinds):
            if kind != "eq":
                continue
            c = next((j for j, v in enumerate(self.cols) if v < n and T[i][j]),
                     None)
            if c is None:
                if T[i][-1]:
                    return None
                basic[i] = -1  # 0 = 0: the row says nothing
            else:
                self._pivot(i, c)
                self._drop_col(c)
        for c, v in enumerate(self.cols):
            if v < n:
                r = next((i for i, b in enumerate(basic) if b > n and T[i][c]),
                         None)
                if r is not None:
                    self._pivot(r, c)

        # phase one: the auxiliary enters in the row of the lowest value
        low = min((i for i, b in enumerate(basic) if b >= n),
                  key=lambda i: T[i][-1], default=None)
        if low is not None and T[low][-1] < 0:
            aux = n + 2 + len(self.kinds)
            for row, b in zip(T, basic):
                row.insert(-1, -self.D if b >= n else 0)
            self.cols.append(aux)
            o = self._add_row([0] * len(self.cols) + [0], -1)
            T[o][-2] = self.D  # maximise -aux
            self._pivot(low, len(self.cols) - 1)
            while T[o][-1] < 0:
                if not self._bland_step(o):
                    return None
            if aux in basic:
                r = basic.index(aux)
                c = next((j for j, a in enumerate(T[r][:-1]) if a), None)
                if c is None:
                    basic[r] = -1
                else:
                    self._pivot(r, c)
            if aux in self.cols:
                self._drop_col(self.cols.index(aux))
            del T[o], basic[o]

        # phase two: a basis with t > 0
        if self.strict:
            while T[self.obj][-1] <= 0:
                if not self._bland_step(self.obj):
                    return None
        x = [Fraction(0)] * n
        for row, b in zip(T, basic):
            if 0 <= b < n:
                x[b] = Fraction(row[-1], self.D)
        return x
