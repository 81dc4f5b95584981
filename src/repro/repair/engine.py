"""The degraded-hardware repair engine.

Given a previously verified :class:`~repro.core.solution.SynthesisResult`
and a set of newly observed valve faults, :func:`repair`:

1. folds the faults into a :class:`~repro.switches.health.HealthMask`
   and masks the spec's switch (dead valves/segments leave the path
   catalog; reachability is re-validated);
2. seeds a :class:`~repro.opt.incremental.SolveContext` with a warm
   incumbent built from the prior routing — surviving paths are kept
   verbatim, broken flows are greedily rerouted on the masked graph —
   via :func:`repro.core.synthesizer.seed_context`;
3. re-synthesizes on the masked spec. The existing machinery does the
   rest: the Tier-A store key is fault-salted (never serves a
   healthy-chip result), a missed :class:`~repro.deadline.Deadline`
   falls down the standard degradation ladder, and the repaired result
   is verified by the independent checker — which now also rejects any
   routing over a masked segment.

The repair contract is deterministic: every input of the re-solve
(masked catalog, seed incumbent, solver schedule) is a pure function of
the prior result and the canonical fault set, so a fixed fault plan
yields an identical repaired routing on every run and across service
restarts.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.core.solution import SynthesisResult, SynthesisStatus
from repro.core.spec import SwitchSpec
from repro.core.synthesizer import SynthesisOptions, seed_context, synthesize
from repro.errors import RepairError
from repro.obs.trace import obs_event
from repro.opt.incremental import SolveContext
from repro.sim.faults import FaultKind, ValveFault
from repro.switches.base import segment_key
from repro.switches.health import (
    HealthMask,
    ReachabilityReport,
    reachability_report,
)
from repro.switches.paths import Path

Faults = Union[HealthMask, Iterable[ValveFault]]

#: Accepted spellings for each fault kind in the compact CLI/HTTP form.
_KIND_ALIASES = {
    "stuck_open": FaultKind.STUCK_OPEN,
    "open": FaultKind.STUCK_OPEN,
    "stuck_closed": FaultKind.STUCK_CLOSED,
    "closed": FaultKind.STUCK_CLOSED,
    "blocked_segment": FaultKind.BLOCKED_SEGMENT,
    "blocked": FaultKind.BLOCKED_SEGMENT,
}


def parse_faults(text: str) -> List[ValveFault]:
    """Parse the compact fault syntax used by the CLI and benchmarks.

    ``"T1-TL:stuck_closed;C-L:blocked@2"`` — semicolon-separated
    entries of ``a-b:kind`` with an optional ``@step`` onset. Kinds
    accept the short aliases ``open``/``closed``/``blocked``.
    """
    faults: List[ValveFault] = []
    for raw in text.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        onset = 0
        if "@" in entry:
            entry, _, onset_text = entry.rpartition("@")
            try:
                onset = int(onset_text)
            except ValueError:
                raise RepairError(f"bad fault onset in {raw!r}") from None
        seg_text, sep, kind_text = entry.partition(":")
        kind = _KIND_ALIASES.get(kind_text.strip() or "stuck_closed")
        if not sep:
            kind = FaultKind.STUCK_CLOSED
        if kind is None:
            raise RepairError(
                f"unknown fault kind {kind_text!r} in {raw!r}; "
                f"expected one of {sorted(set(_KIND_ALIASES))}"
            )
        a, sep, b = seg_text.strip().partition("-")
        if not sep or not a or not b:
            raise RepairError(f"bad fault segment in {raw!r}; expected 'a-b:kind'")
        faults.append(ValveFault((a, b), kind, onset))
    if not faults:
        raise RepairError(f"no faults in fault spec {text!r}")
    return faults


def as_mask(faults: Faults) -> HealthMask:
    """Coerce a fault collection (or mask) to a canonical HealthMask."""
    if isinstance(faults, HealthMask):
        return faults
    return HealthMask.from_faults(faults)


def mask_spec(spec: SwitchSpec, faults: Faults) -> SwitchSpec:
    """A copy of ``spec`` on the degraded switch.

    Masks merge: faults on an already-degraded spec accumulate onto
    the pristine structure, so repeated repairs compose.
    """
    mask = as_mask(faults)
    if mask.is_empty:
        raise RepairError("empty fault set: nothing to mask")
    return dataclasses.replace(spec, switch=spec.switch.with_health(mask))


# ----------------------------------------------------------------------
@dataclass
class RepairResult:
    """Outcome of one repair attempt."""

    original: SynthesisResult
    repaired: SynthesisResult
    mask: HealthMask
    reachability: ReachabilityReport
    #: Flow ids whose prior path survived the mask untouched.
    surviving_flows: Tuple[int, ...]
    #: Flow ids that had to be rerouted around the faults.
    rerouted_flows: Tuple[int, ...]
    #: Whether the warm incumbent was successfully seeded.
    seeded: bool

    @property
    def status(self) -> SynthesisStatus:
        return self.repaired.status

    @property
    def solved(self) -> bool:
        return self.repaired.status.solved

    @property
    def degraded(self) -> bool:
        """True when repair fell down the ladder to the greedy rung."""
        return bool(self.repaired.counters.get("degraded"))

    def summary(self) -> str:
        return (
            f"repair[{self.original.spec.name}]: {self.status.value}, "
            f"{len(self.mask.dead_segments)} masked segment(s), "
            f"{len(self.surviving_flows)} surviving / "
            f"{len(self.rerouted_flows)} rerouted flow(s)"
            + (", degraded" if self.degraded else "")
        )


def repair(prior: SynthesisResult, faults: Faults,
           options: Optional[SynthesisOptions] = None,
           context: Optional[SolveContext] = None) -> RepairResult:
    """Re-synthesize ``prior``'s spec around newly observed faults."""
    if not prior.status.solved or not prior.flow_paths:
        raise RepairError(
            "repair needs a solved prior result with a routed assignment"
        )
    options = options or SynthesisOptions()
    spec2 = mask_spec(prior.spec, faults)
    mask = spec2.switch.health  # merged with any pre-existing mask
    reach = reachability_report(spec2.switch)

    ctx = context if context is not None else SolveContext()
    surviving, rerouted, seed = _seed_result(spec2, prior)
    seeded = False
    if seed is not None:
        try:
            seeded = seed_context(spec2, options, ctx, seed)
        except Exception:
            # A failed seed must never fail the repair — the re-solve
            # just starts cold (the heuristic rung still applies).
            seeded = False
    obs_event("repair_attempt", case=spec2.name,
              masked=len(mask.dead_segments),
              surviving=len(surviving), rerouted=len(rerouted),
              seeded=seeded)

    repaired = synthesize(spec2, options, context=ctx)
    obs_event("repair_result", case=spec2.name,
              status=repaired.status.value,
              degraded=bool(repaired.counters.get("degraded")),
              objective=repaired.objective)
    return RepairResult(
        original=prior,
        repaired=repaired,
        mask=mask,
        reachability=reach,
        surviving_flows=tuple(surviving),
        rerouted_flows=tuple(rerouted),
        seeded=seeded,
    )


# ----------------------------------------------------------------------
def _seed_result(spec: SwitchSpec, prior: SynthesisResult):
    """Surviving paths + greedy reroutes as a warm-start pseudo-result.

    Returns ``(surviving_ids, rerouted_ids, seed_or_None)``. The seed
    is only a warm start: the solver re-validates it against the model
    constraints, so a partially inconsistent seed costs nothing but its
    construction.
    """
    from repro.core.heuristic import _constraint_nodes, _greedy_schedule

    dead = spec.switch.health.dead_segments
    binding = dict(prior.binding)
    flow_paths: Dict[int, Path] = {}
    surviving: List[int] = []
    broken: List[int] = []
    for f in spec.flows:
        p = prior.flow_paths.get(f.id)
        if p is not None and not (set(p.segments) & dead):
            flow_paths[f.id] = p
            surviving.append(f.id)
        else:
            broken.append(f.id)

    counter = itertools.count(20_000)
    for fid in broken:
        f = spec.flow(fid)
        src, dst = binding.get(f.source), binding.get(f.target)
        if src is None or dst is None:
            return surviving, broken, None
        graph = spec.switch.graph.copy()
        for other in spec.conflicts_of(fid):
            other_path = flow_paths.get(other)
            if other_path is None:
                continue
            for n in _constraint_nodes(spec, other_path.vertices):
                if n in graph and n not in (src, dst):
                    graph.remove_node(n)
            for a, b in other_path.segments:
                if graph.has_edge(a, b):
                    graph.remove_edge(a, b)
        try:
            vertices = nx.shortest_path(graph, src, dst, weight="length")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return surviving, broken, None
        segs = frozenset(segment_key(a, b)
                         for a, b in zip(vertices, vertices[1:]))
        flow_paths[fid] = Path(
            index=next(counter),
            source_pin=src,
            target_pin=dst,
            vertices=tuple(vertices),
            nodes=frozenset(v for v in vertices
                            if not spec.switch.is_pin(v)),
            segments=segs,
            length=sum(spec.switch.segments[k].length for k in segs),
        )

    used = {k for p in flow_paths.values() for k in p.segments}
    seed = SynthesisResult(
        spec=spec,
        status=SynthesisStatus.FEASIBLE,
        binding=binding,
        flow_paths=flow_paths,
        flow_sets=_greedy_schedule(spec, flow_paths),
        used_segments=used,
        solver="repair-seed",
    )
    return surviving, broken, seed


__all__ = [
    "RepairResult",
    "as_mask",
    "mask_spec",
    "parse_faults",
    "repair",
]
