"""Fraction-free simplex pivot kernel (Edmonds/Bareiss integer pivoting).

The tableau is kept in Python ints (see ``Tableau``).  A pivot on entry
``p = T[r][s]`` at running determinant ``D`` replaces every other row by

    (T[i] * p - T[i][s] * T[r]) // D

and then sets ``D = p``.  By Sylvester's identity each entry is a minor
of the starting integer matrix, so the division is exact as long as the
tableau started as ints with ``D = 1`` and a 1 in each basic column, and
has been changed by pivots alone since.  Deleting a row is fine: no
other row's update reads it.  See Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22
(1968), and the integer pivoting of Avis's lrs.

A row with a zero in the pivot column is exactly unchanged by the pivot;
its ints would only be rescaled by ``p / D``.  Such rows are left alone
and carry the determinant they were last rewritten at instead.  The
update above then divides by that row's own determinant, which is the
same integer result: the skipped rescalings telescope to ``D / D_i``.

Signs and ratios of the exact tableau are read straight off the ints, and
the objective row's entries share one denominator, so its ints compare
as the exact reduced costs do: the pivot sequence is the one the same
rule takes on a Fraction tableau, pivot for pivot.

The entering rule is Dantzig's (most negative reduced cost), which takes
far fewer pivots than Bland's on the LPs this package builds.  Dantzig's
rule can cycle on a degenerate vertex, so after ``DEGENERATE_RUN``
consecutive pivots that leave the right-hand side unchanged (the leaving
row's is 0) a phase switches to Bland's rule for good, and Bland's rule
cannot cycle (Bland, Math. Oper. Res. 2 (1977)).
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2

# Consecutive degenerate pivots after which a phase enters by Bland's rule.
DEGENERATE_RUN = 50


class Tableau:
    """An exact simplex tableau in ints: row i is ``rows[i] / dens[i]``.

    ``det`` is the running determinant (the latest pivot), and each
    ``dens[i]`` is positive: ``det`` or an earlier value of it.
    """

    def __init__(self, rows: list):
        """Start from int rows with a 1 in each row's basic column."""
        self.rows = rows
        self.dens = [1] * len(rows)
        self.det = 1

    def append(self, row: list) -> None:
        """Add a row of ints given over the current ``det``."""
        self.rows.append(row)
        self.dens.append(self.det)

    def delete(self, i: int) -> None:
        del self.rows[i]
        del self.dens[i]

    def current(self, i: int) -> list:
        """Row i rewritten over the current ``det`` (in place)."""
        row, den, det = self.rows[i], self.dens[i], self.det
        if den != det:
            row[:] = [v * det // den if v else 0 for v in row]
            self.dens[i] = det
        return row

    def fraction(self, i: int, j: int) -> Fraction:
        """The exact entry (i, j)."""
        return Fraction(self.rows[i][j], self.dens[i])

    def pivot(self, row: int, col: int) -> None:
        """Pivot on entry (row, col), which must be nonzero.

        A negative pivot negates the pivot row first, so the new ``det``
        stays positive.  Rows are updated in place, so references to
        them stay valid.
        """
        prow = self.current(row)
        p = prow[col]
        if p < 0:
            p = -p
            prow[:] = [-v for v in prow]
        dens = self.dens
        for i, other in enumerate(self.rows):
            factor = other[col]
            if factor and i != row:
                den = dens[i]
                other[:] = [(v * p - factor * w) // den for v, w in zip(other, prow)]
                dens[i] = p
        dens[row] = p
        self.det = p


def run_simplex(tab: Tableau, basis, enterable, max_iter):
    """Pivot a tableau to optimality.

    The entering column is the enterable one with the most negative
    reduced cost, the lowest index on ties, until ``DEGENERATE_RUN``
    degenerate pivots come in a row; from then on it is the lowest-index
    enterable column with a negative reduced cost (Bland).  The leaving
    row is the smallest ratio, ties going to the lowest basic index.

    Args:
        tab: the Tableau.  Rows 0..m-1 are constraint rows, row m is the
            objective row in reduced-cost form (entry j holds z_j - c_j
            for a maximization, so the tableau is optimal when every
            enterable entry is >= 0).  The last column is the right-hand
            side.
        basis: list of m column indices, the basic column of each row.
            Updated in place.
        enterable: list of bools per column; false columns never enter.
        max_iter: pivot budget, a safety net only (the Bland fallback
            cannot cycle).

    Returns:
        (status, iterations) with status OPTIMAL, UNBOUNDED, or
        ITERATION_LIMIT.
    """
    rows = tab.rows
    m = len(basis)
    obj = rows[m]
    cols = [j for j in range(len(obj) - 1) if enterable[j]]
    iters = 0
    degenerate = 0  # the current run of degenerate pivots, kept at the limit
    while True:
        candidates = (j for j in cols if obj[j] < 0)
        if degenerate < DEGENERATE_RUN:
            # min() keeps the first of equal entries: the lowest index.
            enter = min(candidates, key=obj.__getitem__, default=-1)
        else:
            enter = next(candidates, -1)
        if enter < 0:
            return OPTIMAL, iters
        if iters >= max_iter:
            return ITERATION_LIMIT, iters
        iters += 1

        # Ratio test on rhs_i / a_i (a row's denominator cancels),
        # compared by cross-multiplication since both a's are positive;
        # ties broken by the lowest basic-variable index (Bland leaving
        # rule).
        leave = -1
        best_rhs = best_a = 0
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                rhs = row[-1]
                if leave >= 0:
                    lhs, cur = rhs * best_a, best_rhs * a
                    if lhs > cur or (lhs == cur and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            return UNBOUNDED, iters

        if degenerate < DEGENERATE_RUN:
            degenerate = 0 if best_rhs else degenerate + 1
        tab.pivot(leave, enter)
        basis[leave] = enter
