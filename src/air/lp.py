"""Exact feasibility for small linear inequality systems.

Fourier-Motzkin elimination over Fraction.  Unlike floating-point LP this
decides *strict* inequalities exactly, which is what regularity of a
subdivision needs: its local system mixes equalities (marks on a cell's
lifted plane) with strict folds across interior edges and rows that keep the
unused points above their cells (see secondary.py).

Systems here are tiny: one variable per point of a planar configuration, and
about one row per edge and per point, so the doubly exponential worst case of
the method is irrelevant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactgeom import parse_rational

# A row (coeffs, rhs, strict) encodes sum(coeffs[i] * x[i]) < rhs (strict)
# or <= rhs (non-strict).
Row = Tuple[Tuple[Fraction, ...], Fraction, bool]

_ZERO = Fraction(0)


def _over(c, s) -> Fraction:
    """c / s as a Fraction, for an int or Fraction c and a positive s."""
    if type(c) is int and type(s) is int:
        return Fraction(c, s) if c else _ZERO
    return c / s


def _normalize(coeffs: Sequence, rhs) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """The row scaled by a positive constant so that its leading coefficient
    is +-1.  Int entries stay ints until that division; strings and Fractions
    go through parse_rational."""
    cs = [c if type(c) is int else parse_rational(c) for c in coeffs]
    r = rhs if type(rhs) is int else parse_rational(rhs)
    s = abs(next((c for c in cs if c), 1))
    return tuple(_over(c, s) for c in cs), _over(r, s)


class LinearSystem:
    """Collect constraints on x[0..nvars-1], then ask for a feasible point."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._ineqs: List[Row] = []
        self._eqs: List[Tuple[Tuple[Fraction, ...], Fraction]] = []

    def add_le(self, coeffs: Sequence, rhs) -> None:
        cs, r = _normalize(coeffs, rhs)
        self._ineqs.append((cs, r, False))

    def add_lt(self, coeffs: Sequence, rhs) -> None:
        cs, r = _normalize(coeffs, rhs)
        self._ineqs.append((cs, r, True))

    def add_eq(self, coeffs: Sequence, rhs) -> None:
        cs, r = _normalize(coeffs, rhs)
        self._eqs.append((cs, r))

    def feasible_point(self) -> Optional[List[Fraction]]:
        """A point satisfying every constraint, or None if infeasible."""
        n = self.nvars
        rows = list(self._ineqs)

        # substitute equalities out first: x[v] = const - sum(c * x[other])
        subs: List[Tuple[int, Fraction, Tuple[Fraction, ...]]] = []
        eqs = [(list(cs), r) for cs, r in self._eqs]
        while eqs:
            cs, r = eqs.pop()
            v = next((i for i, c in enumerate(cs) if c != 0), None)
            if v is None:
                if r != 0:
                    return None
                continue
            inv = 1 / cs[v]
            expr = tuple(-c * inv if i != v else Fraction(0)
                         for i, c in enumerate(cs))
            const = r * inv
            subs.append((v, const, expr))
            eqs = [self._subst_eq(e, v, const, expr) for e in eqs]
            rows = [self._subst_row(row, v, const, expr) for row in rows]

        # Fourier-Motzkin elimination
        stages: List[Tuple[int, List[Row]]] = []
        while True:
            rows = self._dedupe(rows)
            for cs, r, strict in rows:
                if all(c == 0 for c in cs):
                    if r < 0 or (strict and r == 0):
                        return None
            rows = [row for row in rows if any(c != 0 for c in row[0])]
            if not rows:
                break
            v = self._pick_variable(rows)
            stages.append((v, rows))
            pos = [row for row in rows if row[0][v] > 0]
            neg = [row for row in rows if row[0][v] < 0]
            rest = [row for row in rows if row[0][v] == 0]
            new_rows = list(rest)
            for pcs, pr, pstrict in pos:
                pa = pcs[v]
                for ncs, nr, nstrict in neg:
                    na = -ncs[v]
                    cs = tuple(pc / pa + nc / na for pc, nc in zip(pcs, ncs))
                    cs2, r2 = _normalize(cs, pr / pa + nr / na)
                    new_rows.append((cs2, r2, pstrict or nstrict))
            rows = new_rows

        # back-substitute a witness, innermost stage first
        values: Dict[int, Fraction] = {}
        for v, stage_rows in reversed(stages):
            values[v] = self._choose_value(v, stage_rows, values)
        x = [values.get(i, _ZERO) for i in range(n)]
        for v, const, expr in reversed(subs):
            x[v] = const + sum(c * x[i] for i, c in enumerate(expr))
        return x

    @staticmethod
    def _subst_row(row: Row, v: int, const: Fraction,
                   expr: Tuple[Fraction, ...]) -> Row:
        cs, r, strict = row
        a = cs[v]
        if a == 0:
            return row
        new = tuple(c + a * e if i != v else Fraction(0)
                    for i, (c, e) in enumerate(zip(cs, expr)))
        cs2, r2 = _normalize(new, r - a * const)
        return (cs2, r2, strict)

    @staticmethod
    def _subst_eq(eq, v, const, expr):
        cs, r = eq
        a = cs[v]
        if a == 0:
            return eq
        new = [c + a * e if i != v else Fraction(0)
               for i, (c, e) in enumerate(zip(cs, expr))]
        return (new, r - a * const)

    @staticmethod
    def _dedupe(rows: List[Row]) -> List[Row]:
        seen = set()
        out = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out

    @staticmethod
    def _pick_variable(rows: List[Row]) -> int:
        best, best_cost = -1, None
        nvars = len(rows[0][0])
        for v in range(nvars):
            pos = sum(1 for row in rows if row[0][v] > 0)
            neg = sum(1 for row in rows if row[0][v] < 0)
            if pos + neg == 0:
                continue
            cost = pos * neg
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        return best

    @staticmethod
    def _choose_value(v: int, rows: List[Row],
                      values: Dict[int, Fraction]) -> Fraction:
        lowers: List[Tuple[Fraction, bool]] = []
        uppers: List[Tuple[Fraction, bool]] = []
        for cs, r, strict in rows:
            a = cs[v]
            if a == 0:
                continue
            # v is not valued yet, and a variable never valued reads 0
            rest = r - sum(c * values[i] for i, c in enumerate(cs)
                           if c and i in values)
            bound = rest / a
            if a > 0:
                uppers.append((bound, strict))
            else:
                lowers.append((bound, strict))
        if not lowers and not uppers:
            return _ZERO
        if not uppers:
            return max(b for b, _ in lowers) + 1
        if not lowers:
            return min(b for b, _ in uppers) - 1
        lo = max(b for b, _ in lowers)
        up = min(b for b, _ in uppers)
        if lo == up:
            return lo
        return (lo + up) / 2
