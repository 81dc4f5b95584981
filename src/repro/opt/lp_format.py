"""CPLEX-LP-format export for optimization models.

Lets any model built with :mod:`repro.opt` be inspected or fed to an
external solver (Gurobi, CPLEX, HiGHS standalone) for cross-checking —
handy when comparing against the paper's original Gurobi runs.
Quadratic models are linearized first, so the emitted file is always a
plain MILP.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Union

from repro.opt.expr import LinExpr, QuadExpr, Sense, Var, VarType
from repro.opt.model import Model

_SENSE_TOKEN = {Sense.LE: "<=", Sense.GE: ">=", Sense.EQ: "="}


def _sanitize(name: str) -> str:
    """LP-safe identifier (no operators/whitespace; must not start with
    a letter reserved by the format like 'e' followed by digits)."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_" else "_")
    token = "".join(out)
    if not token or token[0].isdigit() or token[0] in "eE.":
        token = "v_" + token
    return token


def _terms_to_lp(expr) -> str:
    if isinstance(expr, QuadExpr):
        if expr.quad_terms:
            raise ValueError("linearize the model before LP export")
        terms = expr.lin_terms
    else:
        terms = expr.terms
    if not terms:
        return "0 __zero__"
    parts: List[str] = []
    for var, coef in sorted(terms.items(), key=lambda vc: vc[0].index):
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {abs(coef):.12g} {_sanitize(var.name)}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def model_to_lp(model: Model) -> str:
    """Serialize a model to CPLEX LP format (linearizing if needed)."""
    if not model.is_linear():
        from repro.opt.linearize import linearize

        model, _ = linearize(model)

    lines: List[str] = [f"\\ model: {model.name}"]
    lines.append("Minimize" if model.minimize else "Maximize")
    obj = model.objective
    const = obj.constant if isinstance(obj, (LinExpr, QuadExpr)) else 0.0
    lines.append(f" obj: {_terms_to_lp(obj)}")
    if const:
        lines[-1] += f" + {const:.12g} __one__"

    lines.append("Subject To")
    for idx, constr in enumerate(model.constraints):
        expr = constr.expr
        rhs = -(expr.constant if isinstance(expr, (LinExpr, QuadExpr)) else 0.0)
        name = _sanitize(constr.name or f"c{idx}")
        lines.append(
            f" {name}: {_terms_to_lp(expr)} "
            f"{_SENSE_TOKEN[constr.sense]} {rhs:.12g}"
        )

    bounds: List[str] = []
    generals: List[str] = []
    binaries: List[str] = []
    for var in model.variables:
        name = _sanitize(var.name)
        # A binary fixed by its bounds is written as a bounded general.
        if var.vtype is VarType.BINARY and (var.lb, var.ub) == (0, 1):
            binaries.append(name)
            continue
        lo = "-inf" if math.isinf(var.lb) else f"{var.lb:.12g}"
        hi = "+inf" if math.isinf(var.ub) else f"{var.ub:.12g}"
        bounds.append(f" {lo} <= {name} <= {hi}")
        if var.vtype is not VarType.CONTINUOUS:
            generals.append(name)
    # helper constants used above
    bounds.append(" __zero__ = 0")
    bounds.append(" __one__ = 1")

    lines.append("Bounds")
    lines.extend(bounds)
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(model: Model, path: Union[str, Path]) -> None:
    """Write the model to an ``.lp`` file."""
    Path(path).write_text(model_to_lp(model), encoding="utf-8")
