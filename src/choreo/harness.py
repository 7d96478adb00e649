"""State-space exploration and the cross-semantics correspondence check:
`exhaustive_explore`, the breadth-first closure of the choreography's
reduction relation, and `correspondence_check`, one joint search over
(choreography, network) configuration pairs that matches every step of
either semantics with one step of the other.
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
    cfg = Configuration(normalize(cfg.chor), cfg.sigma, cfg.astate)
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


def correspondence_check(program: "textio.Program", bound: int = 25) -> CorrespondenceReport:
    """Joint breadth-first check of the two semantics, as one search over
    (choreography, network) configuration pairs from the paired initial ones.

    The check is the one-step operational correspondence: every choreography
    step of a pair must be matched by one network step whose endpoint lies
    above the projected successor (pruning order, equal connector states),
    and every network step must be matched back by one choreography step the
    same way.  The first match in step order gives the successor pair; a
    step without one is a gap.  So a gap is reported relative to the first
    match taken on the way to its pair: another choice of match might avoid
    it.
    """
    g = program.connectors
    pg = project_connectors(g)
    c0 = initial_configuration(program)
    # Many pairs and both directions of a pair ask about the same states, so
    # each choreography state is projected once and each verdict is worked
    # out once, for the whole search.  Each side keeps one `StepMemo` for the
    # search.
    projected: dict[Configuration, Network] = {c0: _project_cfg(c0)}
    verdicts: dict[tuple[Configuration, NetConfiguration], bool] = {}
    n0 = NetConfiguration.make(projected[c0], c0.astate_map())
    gaps: list[str] = []
    pairs = 0
    chor_memo, net_memo = StepMemo(), StepMemo()

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

    def pair_steps(pair: tuple[Configuration, NetConfiguration]) -> list[Step]:
        nonlocal pairs
        pairs += 1
        cc, nc = pair
        crs, nrs = reductions(cc, g, chor_memo), cp_reductions(nc, pg, net_memo)
        out: list[Step] = []
        for cr in crs:
            n = next((nr.config for nr in nrs if above(cr.config, nr.config)), None)
            if n is None:
                gaps.append(
                    f"completeness: no network match for choreography step {_describe_step(cr)}"
                )
            else:
                out.append(cr._replace(config=(cr.config, n)))
        for nr in nrs:
            c = next((cr.config for cr in crs if above(cr.config, nr.config)), None)
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
