"""Solver backend registry.

Three exact backends are provided:

* ``"highs"`` — scipy's HiGHS MILP interface (default when available);
* ``"branch_bound"`` — our own best-first branch-and-bound over scipy
  LP relaxations;
* ``"backtrack"`` — a pure-Python exhaustive CP search for small
  all-integer models (numerics-free oracle).

A meta-backend, ``"portfolio"``, races members on threads and returns
the first conclusive result (see :mod:`repro.opt.solvers.portfolio`).

``"auto"`` resolves to HiGHS when scipy provides it, else branch-and-bound.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import SolverError
from repro.opt.solvers.backtrack import BacktrackBackend
from repro.opt.solvers.base import SolverBackend, merge_counters
from repro.opt.solvers.branch_bound import BranchBoundBackend

#: Built-in backend names (plus the "auto" alias) — not overridable.
BUILTIN_BACKENDS = ("highs", "branch_bound", "backtrack", "portfolio")

#: User-registered backend factories (see :func:`register_backend`).
_CUSTOM_BACKENDS: Dict[str, Callable[[], SolverBackend]] = {}


def _highs_available() -> bool:
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_backend_name(name: str = "auto") -> str:
    """Resolve ``"auto"`` to the concrete backend name it would pick."""
    if name == "auto":
        return "highs" if _highs_available() else "branch_bound"
    return name


def register_backend(name: str, factory: Callable[[], SolverBackend],
                     replace: bool = False) -> None:
    """Register a custom backend factory under ``name``.

    The name then works anywhere a built-in backend name does —
    ``Model.solve(backend=...)``, ``SynthesisOptions.backend``,
    portfolio member lists. Built-in names (and ``"auto"``) cannot be
    shadowed; re-registering an existing custom name requires
    ``replace=True``. The primary consumer is the fault-injection
    harness (:mod:`repro.testing.faultinject`), which wraps a real
    backend in a crash/timeout/corruption layer.
    """
    if name == "auto" or name in BUILTIN_BACKENDS:
        raise SolverError(f"cannot shadow built-in backend {name!r}")
    if name in _CUSTOM_BACKENDS and not replace:
        raise SolverError(
            f"backend {name!r} already registered (pass replace=True)")
    _CUSTOM_BACKENDS[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a custom backend; unknown names are ignored."""
    _CUSTOM_BACKENDS.pop(name, None)


def get_backend(name: str = "auto") -> SolverBackend:
    """Instantiate a solver backend by name."""
    name = resolve_backend_name(name)
    if name in _CUSTOM_BACKENDS:
        return _CUSTOM_BACKENDS[name]()
    if name == "highs":
        from repro.opt.solvers.highs import HighsBackend

        return HighsBackend()
    if name == "branch_bound":
        return BranchBoundBackend()
    if name == "backtrack":
        return BacktrackBackend()
    if name == "portfolio":
        from repro.opt.solvers.portfolio import PortfolioBackend

        return PortfolioBackend()
    raise SolverError(f"unknown solver backend {name!r}")


def available_backends() -> Dict[str, bool]:
    """Map of backend name to availability on this machine."""
    table = {
        "highs": _highs_available(),
        "branch_bound": True,
        "backtrack": True,
        "portfolio": True,
    }
    table.update({name: True for name in _CUSTOM_BACKENDS})
    return table


__all__ = ["get_backend", "register_backend", "unregister_backend",
           "resolve_backend_name", "available_backends", "BUILTIN_BACKENDS",
           "SolverBackend", "BranchBoundBackend", "BacktrackBackend",
           "merge_counters"]
