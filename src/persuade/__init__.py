"""Exact solvers for persuasion with payments.

Single-receiver instances (any finite action count) and binary-action
multi-receiver instances are solved under four payment regimes: zero,
non-negative, budget-balanced, and arbitrary transfers.  Everything runs
on exact rational arithmetic, and answers are certified optimal: a fast
path's by its own closed-form dual, an LP answer by its solved one.
"""

__version__ = "1.0.0"
