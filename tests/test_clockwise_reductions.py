"""Exactness of the CLOCKWISE reductions: an enumeration oracle.

Under the CLOCKWISE policy the builder states the cyclic order directly:
pin domains (bounds fixing ``y[m, p]`` to 0), an offset filter on each
flow's candidate paths, and window rows between consecutive modules.
None of them may remove a feasible binding. On small 8-pin cases every
binding that eqs. (3.12)-(3.13) and ``rot_symmetry`` admit is listed by
brute force, and

* each one must survive the pin domains, the offset filter and every
  binding-only row of the built model;
* the CLOCKWISE optimum must equal the best FIXED optimum over them.

The application answers under CLOCKWISE are pinned too, and the FIXED
and UNFIXED models must keep their variable and constraint names.
"""

import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cases import chip_sw1, generate_case, kinase_sw1, mrna_isolation
from repro.core import BindingPolicy, SynthesisOptions, SynthesisStatus, synthesize
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import build_catalog
from repro.opt.expr import LinExpr

OPTS = SynthesisOptions(cache=False, mip_gap=1e-9, pressure_sharing=False)

#: (n_inlets, n_flows) pairs giving 2-5 modules on an 8-pin switch.
SHAPES = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]


def clockwise_spec(seed, shape, n_conflicts):
    n_inlets, n_flows = shape
    return generate_case(seed=seed, switch_size=8, n_flows=n_flows,
                         n_inlets=n_inlets, n_conflicts=n_conflicts,
                         binding=BindingPolicy.CLOCKWISE)


def clockwise_bindings(spec):
    """Every binding (3.12)-(3.13) and ``rot_symmetry`` admit."""
    switch = spec.switch
    order = spec.module_order
    n = len(order)
    rot = switch.rotation_order
    arc = switch.n_pins // rot if rot > 1 else switch.n_pins
    bindings = []
    for pins in itertools.permutations(switch.pins, n):
        idx = [switch.pin_index(p) for p in pins]
        descents = sum(idx[i] >= idx[(i + 1) % n] for i in range(n))
        if n > 1 and descents != 1:
            continue
        binding = dict(zip(order, pins))
        if switch.pin_index(binding[spec.modules[0]]) <= arc:
            bindings.append(binding)
    return bindings


def binding_assignment(built, binding):
    """Values of the binding-only variables (y, pin index, wrap q)."""
    spec = built.spec
    switch = spec.switch
    values = {var: float(binding[m] == p) for (m, p), var in built.y.items()}
    for m, var in built.pin_index_var.items():
        values[var] = float(switch.pin_index(binding[m]))
    order = spec.module_order
    for i, m in enumerate(order):
        nxt = order[(i + 1) % len(order)]
        wraps = switch.pin_index(binding[m]) >= switch.pin_index(binding[nxt])
        values[built.wrap_q[m]] = float(wraps or len(order) == 1)
    return values


def binding_rows(built, values):
    """Constraints that mention only binding-only variables."""
    return [c for c in built.model.constraints
            if isinstance(c.expr, LinExpr)
            and all(v in values for v in c.expr.terms)]


spec_params = st.tuples(st.integers(0, 10_000), st.sampled_from(SHAPES),
                        st.integers(0, 1))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_params)
def test_reductions_keep_every_clockwise_binding(params):
    spec = clockwise_spec(*params)
    catalog = build_catalog(spec, OPTS)
    built = SynthesisModelBuilder(spec, catalog).build()
    allowed = {fid: {p.index for p in paths}
               for fid, paths in built.allowed_paths.items()}
    bindings = clockwise_bindings(spec)
    assert bindings
    for binding in bindings:
        for m, pin in binding.items():
            assert built.y[(m, pin)].ub == 1, (m, pin)
        for f in spec.flows:
            between = {p.index for p in catalog.between(binding[f.source],
                                                        binding[f.target])}
            assert between <= allowed[f.id], (f, binding)
        values = binding_assignment(built, binding)
        rows = binding_rows(built, values)
        assert any(c.name.startswith("cwwin_") for c in rows)
        violated = [c.name for c in rows if not c.satisfied(values)]
        assert not violated, (binding, violated)


def best_fixed(spec, bindings):
    """Minimum FIXED objective over ``bindings`` (None: all infeasible)."""
    best = None
    for binding in bindings:
        fixed = dataclasses.replace(
            spec, binding=BindingPolicy.FIXED, fixed_binding=binding,
            module_order=None, name=f"{spec.name}-fixed")
        fixed.validate()
        res = synthesize(fixed, OPTS)
        if res.status.solved and (best is None or res.objective < best):
            best = res.objective
    return best


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_params)
def test_clockwise_optimum_is_best_fixed_optimum(params):
    spec = clockwise_spec(*params)
    res = synthesize(spec, OPTS)
    best = best_fixed(spec, clockwise_bindings(spec))
    if best is None:
        assert not res.status.solved
    else:
        assert res.status.solved
        assert res.objective == pytest.approx(best)


def test_clockwise_application_answers():
    kinase = synthesize(kinase_sw1(BindingPolicy.CLOCKWISE), OPTS)
    assert kinase.status is SynthesisStatus.OPTIMAL
    assert kinase.objective == pytest.approx(281)
    mrna = synthesize(mrna_isolation(BindingPolicy.CLOCKWISE), OPTS)
    assert mrna.status is SynthesisStatus.NO_SOLUTION


#: First 16 hex digits of the sha256 of a build's variable names, then
#: its constraint names, one per line. The CLOCKWISE reductions leave
#: the FIXED and UNFIXED models exactly as they were.
PINNED_NAMES = {
    (kinase_sw1, BindingPolicy.FIXED): "5b12d64e06b17ffe",
    (kinase_sw1, BindingPolicy.UNFIXED): "f6bd4050b4bc7a45",
    (chip_sw1, BindingPolicy.FIXED): "ef70a302160921e2",
    (chip_sw1, BindingPolicy.UNFIXED): "d15f78b11d89c697",
}


@pytest.mark.parametrize("factory,policy", sorted(
    PINNED_NAMES, key=lambda k: (k[0].__name__, k[1].value)))
def test_other_policies_keep_their_names(factory, policy):
    spec = factory(policy)
    model = SynthesisModelBuilder(spec, build_catalog(spec, OPTS)).build().model
    names = [v.name for v in model.variables] + [c.name for c in model.constraints]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    assert digest == PINNED_NAMES[(factory, policy)]
