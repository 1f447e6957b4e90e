"""Fraction-free simplex pivot kernel (Edmonds/Bareiss integer pivoting).

The tableau is kept in Python ints (see ``Tableau``).  A pivot on entry
``p = T[r][s]`` at running determinant ``D`` replaces every other row by

    (T[i] * p - T[i][s] * T[r]) // D

and then sets ``D = p``.  By Sylvester's identity each entry is a minor
of the starting integer matrix, so the division is exact as long as the
tableau started as ints with ``D = 1`` and a 1 in each basic column, and
has been changed by pivots alone since (or starts in a state such pivots
would reach, as the rows ``lp.solve`` hands over after keying do).
Deleting a row is fine: no other row's update reads it.  See Bareiss, "Sylvester's identity and
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

Convexity rows (sum over a set S of columns == beta) stay implicit
(generalized upper bounding: Dantzig and Van Slyke, J. Comput. Syst.
Sci. 1 (1967)).  Each set has a key column, basic but held in no
tableau row: a member j is stored as its column minus the key's, so the
key's own column is 0, and the key's value is beta minus its set's
members basic in explicit rows.  The tableau is then exactly the full
tableau's explicit rows, so the pivots, and the basis after each one,
are those of the full tableau; the set's row enters only the ratio test
and the step that changes a leaving key (``Tableau.swap_key``,
``Tableau.shift_key``).  Each of those steps writes rows the full
tableau's Bareiss pivots would write, at the same ``det``, so every
later division stays exact.
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
    ``dens[i]`` is positive: ``det`` or an earlier value of it.  ``keys``,
    ``members`` and ``betas`` describe the implicit convexity rows, one
    per set k: its current key column, its member columns (the key
    among them) and beta_k as the pair (r, c), beta_k = r / c.
    """

    def __init__(self, rows: list, det: int = 1, dens=None, sets=()):
        """Start from int rows whose basic columns hold their ``dens``.

        ``sets`` holds one (key, members, r, c) per implicit convexity
        row, its members' columns already stored relative to the key.
        """
        self.rows = rows
        self.dens = [1] * len(rows) if dens is None else dens
        self.det = det
        self.keys = [key for key, _, _, _ in sets]
        self.members = [members for _, members, _, _ in sets]
        self.betas = [(r, c) for _, _, r, c in sets]
        self.set_of = {j: k for k, members in enumerate(self.members) for j in members}

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

    def swap_key(self, k: int, basis) -> int:
        """Make a basic member of set k its key, or return -1 if none is.

        The first row i whose basic column is in set k gives up that
        column as the new key and takes the old key instead: its row
        becomes the old key's, ``D*1_S - sum`` of the set's basic rows,
        with right-hand side ``beta*D - sum``, and basis[i] becomes the
        old key.  The set of basic columns is unchanged.  Returns i.
        """
        set_of, det = self.set_of, self.det
        rows = [i for i, b in enumerate(basis) if set_of.get(b) == k]
        if not rows:
            return -1
        i = rows[0]
        new = [-v for v in self.current(i)]
        for other in rows[1:]:
            new = [v - w for v, w in zip(new, self.current(other))]
        for j in self.members[k]:
            new[j] += det
        r, c = self.betas[k]
        new[-1] += r * det // c
        self.rows[i][:] = new
        self.keys[k], basis[i] = basis[i], self.keys[k]
        return i

    def shift_key(self, k: int, s: int) -> None:
        """Make member s of set k its key, none of the set being basic.

        The leaving key's row pivots on column s with pivot ``det``:
        every row, the objective row included, loses column s from the
        set's columns and beta times it from its right-hand side.
        """
        r, c = self.betas[k]
        members = self.members[k]
        for i, row in enumerate(self.rows):
            if row[s]:
                if c != 1:
                    row = self.current(i)
                f = row[s]
                for j in members:
                    row[j] -= f
                row[-1] -= r * f // c
        self.keys[k] = s


def key_rows(tab: Tableau, basis, s: int) -> list:
    """The implicit key rows with a positive entry in column s.

    Returns (k, rhs, a) per such set k, the key's ratio being rhs / a:
    ``(beta*D - sum rhs_i) / (D*[s in S_k] - sum T[i][s])`` summed over
    the rows whose basic column is in S_k, scaled by beta's denominator.
    """
    if not tab.keys:
        return []
    set_of, rows, dens, det = tab.set_of, tab.rows, tab.dens, tab.det
    sums: dict = {}
    own = set_of.get(s)
    if own is not None:
        sums[own] = [0, det]
    for i, b in enumerate(basis):
        k = set_of.get(b)
        if k is not None:
            row, den = rows[i], dens[i]
            acc = sums.get(k)
            if acc is None:
                acc = sums[k] = [0, 0]
            acc[0] += row[-1] * det // den
            acc[1] -= row[s] * det // den
    out = []
    betas = tab.betas
    for k, (total, a) in sums.items():
        if a > 0:
            r, c = betas[k]
            out.append((k, r * det - c * total, c * a))
    return out


def run_simplex(tab: Tableau, basis, enterable, budget):
    """Pivot a tableau to optimality.

    The entering column is the enterable one with the most negative
    reduced cost, the lowest index on ties, until ``DEGENERATE_RUN``
    degenerate pivots come in a row; from then on it is the lowest-index
    enterable column with a negative reduced cost (Bland).  The leaving
    row is the smallest ratio, ties going to the lowest basic index,
    among the explicit rows and the implicit key rows.  A leaving key
    hands its set to a basic member, whose row the entering column then
    pivots on, or, with no member basic, to the entering column itself.

    Args:
        tab: the Tableau.  Rows 0..m-1 are constraint rows, row m is the
            objective row in reduced-cost form (entry j holds z_j - c_j
            for a maximization, so the tableau is optimal when every
            enterable entry is >= 0).  The last column is the right-hand
            side.
        basis: list of m column indices, the basic column of each row.
            Updated in place.
        enterable: list of bools per column; false columns never enter.
        budget: the most pivots to take, a safety net only (the Bland
            fallback cannot cycle).

    Returns:
        (status, iterations) with status OPTIMAL, UNBOUNDED, or
        ITERATION_LIMIT.
    """
    rows = tab.rows
    m = len(basis)
    obj = rows[m]
    cols = [j for j in range(len(obj) - 1) if enterable[j]]
    keys = tab.keys
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
        if iters >= budget:
            return ITERATION_LIMIT, iters
        iters += 1

        # Ratio test on rhs_i / a_i (a row's denominator cancels),
        # compared by cross-multiplication since both a's are positive;
        # ties broken by the lowest basic-variable index (Bland leaving
        # rule), the implicit key rows' keys included.
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
        leave_key = -1
        if keys:
            for k, rhs, a in key_rows(tab, basis, enter):
                if leave >= 0 or leave_key >= 0:
                    lhs, cur = rhs * best_a, best_rhs * a
                    best = keys[leave_key] if leave_key >= 0 else basis[leave]
                    if lhs > cur or (lhs == cur and keys[k] > best):
                        continue
                leave, leave_key, best_rhs, best_a = -1, k, rhs, a
        if leave < 0 and leave_key < 0:
            return UNBOUNDED, iters

        if degenerate < DEGENERATE_RUN:
            degenerate = 0 if best_rhs else degenerate + 1
        if leave_key >= 0:
            leave = tab.swap_key(leave_key, basis)
            if leave < 0:
                tab.shift_key(leave_key, enter)
                continue
        tab.pivot(leave, enter)
        basis[leave] = enter
