"""Hand-written expected outcomes for every case-matrix row.

Each entry maps a row to ``(status, objective)``; ``objective`` is None
for a proven-infeasible row. The objective is ``alpha * sets + beta *
length`` with the spec defaults ``alpha = 1`` and ``beta = 100`` per mm,
so chip_sw1 FIXED (2 sets, 16.9 mm) is 1692.

The table is written out by hand and is never regenerated from a
benchmark run. :func:`cross_check` ties it to the measured Table 4.1,
4.2 and 4.3 lengths in EXPERIMENTS.md and to the binding-policy order,
and runs on every benchmark run before any row is timed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

OPTIMAL = "optimal"
INFEASIBLE = "no solution"

Outcome = Tuple[str, Optional[float]]

#: Application cases, keyed ``(case, policy)``. Rows marked "order
#: only" are not run by any workload; they take part in the policy
#: order check alone.
CASES: Dict[Tuple[str, str], Outcome] = {
    ("chip_sw1", "fixed"): (OPTIMAL, 1692.0),
    ("chip_sw1", "clockwise"): (OPTIMAL, 1061.0),        # order only
    ("chip_sw2", "fixed"): (OPTIMAL, 1621.0),
    ("nucleic_acid", "fixed"): (INFEASIBLE, None),
    ("nucleic_acid", "clockwise"): (INFEASIBLE, None),   # order only
    ("nucleic_acid", "unfixed"): (OPTIMAL, 421.0),
    ("mrna_isolation", "fixed"): (INFEASIBLE, None),
    ("mrna_isolation", "clockwise"): (INFEASIBLE, None),
    ("mrna_isolation", "unfixed"): (OPTIMAL, 761.0),
    ("kinase_sw1", "fixed"): (OPTIMAL, 281.0),
    ("kinase_sw1", "clockwise"): (OPTIMAL, 281.0),
    ("kinase_sw1", "unfixed"): (OPTIMAL, 281.0),
    ("kinase_sw2", "fixed"): (OPTIMAL, 881.0),
    ("kinase_sw2", "clockwise"): (OPTIMAL, 821.0),       # order only
    ("example_4_2", "fixed"): (OPTIMAL, 1963.0),
    ("example_4_2", "clockwise"): (OPTIMAL, 1963.0),
}

#: The 30 FIXED rows of ``suite_90``, keyed by spec name.
SUITE_FIXED: Dict[str, Outcome] = {
    "artificial[s=83,8pin,f=3,i=2,c=0,fixed]": (OPTIMAL, 952.0),
    "artificial[s=1083,8pin,f=3,i=2,c=1,fixed]": (OPTIMAL, 551.0),
    "artificial[s=2083,8pin,f=3,i=2,c=2,fixed]": (INFEASIBLE, None),
    "artificial[s=3083,8pin,f=3,i=2,c=0,fixed]": (OPTIMAL, 752.0),
    "artificial[s=4083,8pin,f=3,i=2,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=84,8pin,f=4,i=2,c=0,fixed]": (OPTIMAL, 1022.0),
    "artificial[s=1084,8pin,f=4,i=2,c=1,fixed]": (OPTIMAL, 821.0),
    "artificial[s=2084,8pin,f=4,i=2,c=2,fixed]": (OPTIMAL, 821.0),
    "artificial[s=3084,8pin,f=4,i=2,c=0,fixed]": (OPTIMAL, 1022.0),
    "artificial[s=4084,8pin,f=4,i=2,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=85,8pin,f=5,i=3,c=0,fixed]": (OPTIMAL, 1163.0),
    "artificial[s=1085,8pin,f=5,i=3,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=2085,8pin,f=5,i=3,c=2,fixed]": (INFEASIBLE, None),
    "artificial[s=3085,8pin,f=5,i=3,c=0,fixed]": (OPTIMAL, 1163.0),
    "artificial[s=4085,8pin,f=5,i=3,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=123,12pin,f=3,i=2,c=0,fixed]": (OPTIMAL, 1111.0),
    "artificial[s=1123,12pin,f=3,i=2,c=1,fixed]": (OPTIMAL, 1181.0),
    "artificial[s=2123,12pin,f=3,i=2,c=2,fixed]": (OPTIMAL, 1041.0),
    "artificial[s=3123,12pin,f=3,i=2,c=0,fixed]": (OPTIMAL, 982.0),
    "artificial[s=4123,12pin,f=3,i=2,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=124,12pin,f=4,i=2,c=0,fixed]": (OPTIMAL, 1412.0),
    "artificial[s=1124,12pin,f=4,i=2,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=2124,12pin,f=4,i=2,c=2,fixed]": (INFEASIBLE, None),
    "artificial[s=3124,12pin,f=4,i=2,c=0,fixed]": (OPTIMAL, 1252.0),
    "artificial[s=4124,12pin,f=4,i=2,c=1,fixed]": (OPTIMAL, 1281.0),
    "artificial[s=125,12pin,f=5,i=3,c=0,fixed]": (OPTIMAL, 1393.0),
    "artificial[s=1125,12pin,f=5,i=3,c=1,fixed]": (INFEASIBLE, None),
    "artificial[s=2125,12pin,f=5,i=3,c=2,fixed]": (INFEASIBLE, None),
    "artificial[s=3125,12pin,f=5,i=3,c=0,fixed]": (OPTIMAL, 1553.0),
    "artificial[s=4125,12pin,f=5,i=3,c=1,fixed]": (OPTIMAL, 1622.0),
}

#: Measured channel lengths in mm (None = "no solution") copied from
#: the Table 4.1, 4.2 and 4.3 sections of EXPERIMENTS.md. Rows that
#: stopped at the time limit there are left out: their length is not
#: an optimum.
EXPERIMENTS_LENGTH_MM: Dict[Tuple[str, str], Optional[float]] = {
    ("chip_sw1", "clockwise"): 10.6,
    ("chip_sw1", "fixed"): 16.9,
    ("chip_sw2", "fixed"): 16.2,
    ("nucleic_acid", "clockwise"): None,
    ("nucleic_acid", "fixed"): None,
    ("nucleic_acid", "unfixed"): 4.2,
    ("mrna_isolation", "clockwise"): None,
    ("mrna_isolation", "fixed"): None,
    ("mrna_isolation", "unfixed"): 7.6,
    ("kinase_sw1", "clockwise"): 2.8,
    ("kinase_sw1", "fixed"): 2.8,
    ("kinase_sw1", "unfixed"): 2.8,
    ("kinase_sw2", "clockwise"): 8.2,
    ("kinase_sw2", "fixed"): 8.8,
    ("example_4_2", "fixed"): 19.6,
}

#: Flow-set counts are small (at most 3 here), so ``alpha * sets``
#: moves an objective by less than this many units away from
#: ``beta * length``.
_SET_TERM_MAX = 10.0

_POLICY_ORDER = ("unfixed", "clockwise", "fixed")


def cross_check() -> List[str]:
    """Problems with the table itself (an empty list when consistent)."""
    problems: List[str] = []
    for key, length in EXPERIMENTS_LENGTH_MM.items():
        status, objective = CASES[key]
        if length is None:
            if status != INFEASIBLE:
                problems.append(f"{key}: EXPERIMENTS.md says no solution, "
                                f"table says {status}")
        elif status != OPTIMAL or abs(objective - 100.0 * length) \
                >= _SET_TERM_MAX:
            problems.append(f"{key}: EXPERIMENTS.md length {length} mm does "
                            f"not match ({status}, {objective})")
    cases = {case for case, _ in CASES}
    for case in sorted(cases):
        outcomes = [(p, CASES[(case, p)]) for p in _POLICY_ORDER
                    if (case, p) in CASES]
        for (loose, (s1, o1)), (tight, (s2, o2)) in zip(outcomes,
                                                        outcomes[1:]):
            if s1 == INFEASIBLE and s2 != INFEASIBLE:
                problems.append(f"{case}: {loose} infeasible but {tight} "
                                f"solves")
            if s1 == OPTIMAL and s2 == OPTIMAL and o1 > o2:
                problems.append(f"{case}: {loose} objective {o1} above "
                                f"{tight} objective {o2}")
    return problems


def matches(expected: Outcome, status: str,
            objective: Optional[float]) -> bool:
    """Whether a run's status and objective equal the expected outcome."""
    want_status, want_objective = expected
    if status != want_status:
        return False
    if want_objective is None:
        return objective is None
    return objective is not None and \
        abs(objective - want_objective) <= 1e-6 * max(1.0, want_objective)
