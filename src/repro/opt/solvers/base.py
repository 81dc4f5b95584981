"""Common interface and utilities for MILP solver backends."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.opt.model import Model
from repro.opt.result import Solution


class SolverBackend:
    """Interface every backend implements.

    ``warm_start`` is an optional, already-validated
    :class:`~repro.opt.incremental.WarmStart`; backends that cannot use
    one must accept and ignore it. A warm start may only ever speed a
    search up — status and objective must not depend on it.
    """

    name = "base"

    def solve(
        self,
        model: Model,
        time_limit: Optional[float] = None,
        mip_gap: float = 1e-9,
        verbose: bool = False,
        warm_start=None,
    ) -> Solution:
        raise NotImplementedError


def merge_counters(*counter_dicts: Mapping[str, object]) -> Dict[str, object]:
    """Sum solver counters from several search loops into one dict.

    Numeric values add; everything else (strings, booleans) keeps the
    first occurrence. This is the aggregation rule of the portfolio's
    cross-member roll-up, so a race reports the search effort of every
    member instead of only the winner's.
    """
    merged: Dict[str, object] = {}
    for counters in counter_dicts:
        for key, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                merged.setdefault(key, value)
            else:
                merged[key] = merged.get(key, 0) + value  # type: ignore
    return merged


class StandardForm:
    """A model flattened to dense matrix form.

    ``minimize c @ x`` subject to ``A_ub @ x <= b_ub``,
    ``A_eq @ x == b_eq``, ``lb <= x <= ub``, with ``integrality`` flags
    (1 = integer, 0 = continuous). The objective is always stated as a
    minimization; ``obj_sign`` records the flip needed to report the
    original objective value, and ``obj_offset`` the constant term.

    This is now a thin dense view over the cached sparse
    :class:`~repro.opt.compile.CompiledModel`; backends that can consume
    sparse matrices should use ``model.compiled()`` directly.
    """

    def __init__(self, model: Model) -> None:
        compiled = model.compiled()
        self.variables = compiled.variables
        self.n = compiled.n
        self.c = compiled.c
        self.obj_offset = compiled.obj_offset
        self.obj_sign = compiled.obj_sign

        A_ub, b_ub, A_eq, b_eq = compiled.split_form()
        self.A_ub = A_ub.toarray() if A_ub.shape[0] else np.zeros((0, compiled.n))
        self.b_ub = b_ub
        self.A_eq = A_eq.toarray() if A_eq.shape[0] else np.zeros((0, compiled.n))
        self.b_eq = b_eq

        self.lb = compiled.lb
        self.ub = compiled.ub
        self.integrality = compiled.integrality

    def report_objective(self, min_value: float) -> float:
        """Convert an internal minimization value to the user objective.

        The sign flip applies only to the variable part (the constant
        term was never negated when building ``c``).
        """
        return self.obj_sign * min_value + self.obj_offset

    def solution_dict(self, x: np.ndarray) -> dict:
        return {v: float(x[v.index]) for v in self.variables}
