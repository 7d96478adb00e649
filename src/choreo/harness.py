"""State-space exploration and the cross-semantics correspondence check:
`exhaustive_explore`, the breadth-first closure of the choreography's
reduction relation, and `correspondence_check`, one joint search over
(choreography, network) configuration pairs that matches every step of
either semantics with steps of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConnectorMapping
from .chor_engine import (
    Configuration,
    SortedPairs,
    initial_configuration,
    is_terminated,
    normalize,
    reductions,
)
from .cp_engine import (
    NetConfiguration,
    Network,
    cp_reductions,
    normalize_network,
    pruning_leq,
)
from .epp import project_connectors, project_network
from .lts import Search, Step, StepMemo, search
from . import textio


# ---------------------------------------------------------------------------
# Exhaustive exploration


def exhaustive_explore(cfg: Configuration, g: ConnectorMapping, bound: int) -> Search:
    """Breadth-first closure of the reduction relation to the given depth.
    The search keeps one `StepMemo`."""
    cfg = Configuration.make(normalize(cfg.chor), cfg.sigma_map(), cfg.astate_map())
    memo = StepMemo()
    return search(cfg, lambda c: reductions(c, g, memo), bound, lambda c: is_terminated(c))


# ---------------------------------------------------------------------------
# Operational correspondence


@dataclass
class CorrespondenceReport:
    gaps: list[str]
    pairs_checked: int
    truncated: bool

    @property
    def ok(self) -> bool:
        return not self.gaps


def _project_cfg(cfg: Configuration) -> Network:
    return normalize_network(project_network(normalize(cfg.chor), SortedPairs(cfg.sigma)))


# how many steps one side may take to match a single step of the other
COMPLETION_DEPTH = 3


def correspondence_check(program: "textio.Program", bound: int = 25) -> CorrespondenceReport:
    """Joint breadth-first check of the two semantics, as one search over
    (choreography, network) configuration pairs from the paired initial ones.

    Every choreography reduction of a pair must be matched by network
    reductions whose endpoint lies above the projected successor (pruning
    order, equal connector states), and every network reduction
    must be matched back by choreography reductions the same way.  Each match
    gives a successor pair; each step without one is a gap.
    """
    g = program.connectors
    pg = project_connectors(g)
    c0 = initial_configuration(program)
    # Many pairs, both directions of a pair and the completion searches ask
    # about the same states, so each choreography state is projected once and
    # each verdict is worked out once, for the whole search.  Each side keeps
    # one `StepMemo` for the search.
    projected: dict[Configuration, Network] = {c0: _project_cfg(c0)}
    verdicts: dict[tuple[Configuration, NetConfiguration], bool] = {}
    n0 = NetConfiguration.make(projected[c0], c0.astate_map())
    gaps: list[str] = []
    pairs = 0
    chor_memo, net_memo = StepMemo(), StepMemo()

    def chor_steps(c: Configuration) -> list[Step]:
        return reductions(c, g, chor_memo)

    def net_steps(n: NetConfiguration) -> list[Step]:
        return cp_reductions(n, pg, net_memo)

    def above(c: Configuration, n: NetConfiguration) -> bool:
        """Whether n lies above c's projection."""
        if c.astate != n.astate:
            return False
        v = verdicts.get((c, n))
        if v is None:
            net = projected.get(c)
            if net is None:
                net = projected[c] = _project_cfg(c)
            v = verdicts[(c, n)] = pruning_leq(net, n.net)
        return v

    def matched(start, steps: list[Step], successors, accept):
        """The first one-step successor `accept` takes, else the first state
        it takes within COMPLETION_DEPTH steps, else None.  One step on one
        side may need several on the other: commuting an interaction forward
        can require resolving an earlier one first."""
        for step in steps:
            if accept(step.config):
                return step.config
        return search(start, successors, COMPLETION_DEPTH, goal=accept).found

    def pair_steps(pair: tuple[Configuration, NetConfiguration]) -> list[Step]:
        nonlocal pairs
        pairs += 1
        cc, nc = pair
        crs, nrs = chor_steps(cc), net_steps(nc)
        out: list[Step] = []
        for cr in crs:
            n = matched(nc, nrs, net_steps, lambda n: above(cr.config, n))
            if n is None:
                gaps.append(
                    f"completeness: no network match for choreography step {_describe_step(cr)}"
                )
            else:
                out.append(cr._replace(config=(cr.config, n)))
        for nr in nrs:
            c = matched(cc, crs, chor_steps, lambda c: above(c, nr.config))
            if c is None:
                gaps.append(
                    f"soundness: no choreography match for network step {_describe_step(nr)}"
                )
            else:
                out.append(nr._replace(config=(c, nr.config)))
        return out

    truncated = search((c0, n0), pair_steps, bound).truncated
    return CorrespondenceReport(gaps, pairs, truncated)


def _describe_step(r: Step) -> str:
    if r.kind == "com":
        phi = textio.pretty_constraint(r.phi)
        return f"{r.subject}: {phi} ({r.pre_state} -> {r.post_state})"
    return f"{r.subject}: {r.branch} branch"
