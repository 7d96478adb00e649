from __future__ import annotations

import gc
import itertools
import json
import random
from pathlib import Path

import pytest

from choreo import chor_engine as ce
from choreo import cp_engine as cpe
from choreo import epp, harness, textio
from choreo.cli import _project
from choreo.cp_engine import pruning_leq
from choreo.epp import BDef, project_network
from choreo.lts import Search, Step, StepMemo, run, search
from choreo.core import (
    BOT,
    Constraint,
    Def,
    Flow,
    Label,
    Mem,
    Port,
    Prefix,
    RecvVal,
    Sel,
    TRUE,
    ValCom,
    Var,
    validate_automaton,
)
from choreo.harness import correspondence_check, exhaustive_explore

from conftest import (
    RING_AUTOMATA,
    list_fixtures,
    load_automaton,
    load_program,
    parallel_pairs,
    ring_chain,
)
from support import (
    advance_until_connector,
    bad_alternator,
    crossed_chain4,
    drop_transition,
    gen_random_program,
    oracle_by_label,
    oracle_eta_reductions,
    swapped_rendezvous,
)


def _f(a, b) -> Flow:
    return Flow(a, b)


def test_oracle_single_completion() -> None:
    etas = frozenset({ValCom("a", Var("x"), "b", "t")})
    sigma = {("a", "x"): 5}
    by = oracle_by_label(oracle_eta_reductions(etas, sigma, {}))
    lbl = Constraint.of(_f(Port("a"), Port("b")))
    assert set(by) == {lbl}
    (out, s2, m2), = by[lbl]
    assert out == frozenset()
    assert (("b", "t"), 5) in s2


def test_oracle_deposit_then_deliver() -> None:
    etas = frozenset({ValCom("a", Var("x"), "b", "t")})
    sigma = {("a", "x"): 5}
    mu = {"m": BOT}
    by = oracle_by_label(oracle_eta_reductions(etas, sigma, mu))
    dep = Constraint.of(_f(Port("a"), Mem("m")))
    assert dep in by
    outs = {out for out, _, _ in by[dep]}
    assert frozenset({RecvVal("b", "t", 5)}) in outs
    # depositing and delivering through the same cell needs two compositions,
    # which the same-cell read-after-write rule forbids as one label
    both = Constraint.of(_f(Port("a"), Mem("m")), _f(Mem("m"), Port("b")))
    assert both not in by


def test_oracle_delivery_requires_matching_value() -> None:
    etas = frozenset({RecvVal("b", "t", 5)})
    lbl = Constraint.of(_f(Mem("m"), Port("b")))
    assert lbl in oracle_by_label(oracle_eta_reductions(etas, {}, {"m": 5}))
    assert lbl not in oracle_by_label(oracle_eta_reductions(etas, {}, {"m": 6}))
    assert lbl not in oracle_by_label(oracle_eta_reductions(etas, {}, {"m": TRUE}))


def test_oracle_label_bound_is_a_pure_restriction() -> None:
    etas = frozenset({ValCom("a", Var("x"), "b", "t"), Sel("c", "d", "go")})
    sigma = {("a", "x"): 1}
    mu = {"m1": "v", "m2": BOT}
    full = oracle_by_label(oracle_eta_reductions(etas, sigma, mu))
    bounded = oracle_by_label(oracle_eta_reductions(etas, sigma, mu, max_label=2))
    assert set(bounded) == {lbl for lbl in full if len(lbl.flows) <= 2}
    for lbl in bounded:
        assert bounded[lbl] == full[lbl]


def test_every_automaton_fixture_parses_and_validates() -> None:
    names = list_fixtures(".ca")
    assert "sync.ca" in names and "bufferspread2.ca" in names
    for name in names:
        assert validate_automaton(load_automaton(name)) == [], name


def test_mutators_change_exactly_what_they_say() -> None:
    r = load_automaton("rendezvous.ca")
    s = swapped_rendezvous()
    assert validate_automaton(s) == []
    assert s.ports == r.ports
    assert s.transitions != r.transitions
    b = bad_alternator()
    assert validate_automaton(b) == []
    c = crossed_chain4()
    assert validate_automaton(c) == []
    d = drop_transition(load_automaton("buffer1.ca"), 1)
    assert len(d.transitions) == 1


def test_exhaustive_explore_counts_terminal_nodes() -> None:
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)
    ex = exhaustive_explore(cfg, prog.connectors, bound=30)
    assert not ex.truncated
    assert not ex.stuck
    assert ex.terminated
    assert all(isinstance(n, ce.Configuration) for n in ex.nodes)


def test_generator_is_deterministic_and_bounded() -> None:
    p1 = gen_random_program(random.Random(42))
    p2 = gen_random_program(random.Random(42))
    assert p1.main == p2.main
    assert p1.connectors.keys() == p2.connectors.keys()
    for i in range(60):
        prog = gen_random_program(random.Random(9000 + i))
        assert len(prog.main.procs) <= 3
        assert len(prog.main.conns) <= 2
        assert _count_interactions(prog.main) <= 6
        for a in prog.connectors.values():
            assert validate_automaton(a) == []


def _count_interactions(c) -> int:
    from choreo.core import Cond, Def, Prefix

    if isinstance(c, Prefix):
        return len(c.etas) + _count_interactions(c.cont)
    if isinstance(c, Cond):
        return max(
            _count_interactions(c.then_branch), _count_interactions(c.else_branch)
        )
    if isinstance(c, Def):
        return _count_interactions(c.body) + _count_interactions(c.cont)
    return 0


def test_correspondence_clean_on_booksale() -> None:
    report = correspondence_check(load_program("booksale.cr"), bound=25)
    assert report.ok
    assert report.pairs_checked > 0


def test_correspondence_reports_gaps_for_a_miswired_barrier() -> None:
    # the swapped barrier lets the network fire a step the choreography
    # refuses, so the checker must come back with soundness gaps
    report = correspondence_check(load_program("booksale_resp2.cr"), bound=25)
    assert not report.ok
    assert any("network step" in g or "no choreography" in g for g in report.gaps)


# (pairs checked, gaps, truncated) at bounds 3 and 25
CORRESPONDENCE = {
    "booksale.cr": ((3, 0, True), (8, 0, False)),
    "booksale_alternator.cr": ((3, 0, True), (10, 0, False)),
    "booksale_resp1.cr": ((3, 0, True), (10, 0, False)),
    "booksale_resp2.cr": ((3, 0, True), (7, 1, False)),
    "booksale_resp3.cr": ((3, 0, True), (9, 1, False)),
    "loop_barrier.cr": ((3, 0, True), (25, 0, True)),
    "loop_oneway.cr": ((3, 0, True), (25, 0, True)),
    "once.cr": ((3, 0, False), (3, 0, False)),
    "referee_multicast.cr": ((2, 0, False), (2, 0, False)),
    "referee_sequence.cr": ((3, 0, False), (3, 0, False)),
    "reorder.cr": ((8, 0, True), (12, 0, False)),
}


def test_correspondence_counts_are_pinned_on_every_fixture() -> None:
    assert sorted(CORRESPONDENCE) == list_fixtures(".cr")
    for name, pinned in CORRESPONDENCE.items():
        prog = load_program(name)
        for bound, (pairs, gaps, truncated) in zip((3, 25), pinned):
            report = correspondence_check(prog, bound=bound)
            got = (report.pairs_checked, len(report.gaps), report.truncated)
            assert got == (pairs, gaps, truncated), (name, bound)


# compatible, yet the network can put a's second datum into c2 while b's
# receive from c1 is still pending, a state the choreography cannot reach
TWO_BUFFERS = RING_AUTOMATA + """
connectors {
  c1: Buffer1[a/p1, b/p2];
  c2: Buffer1[a/p1, b/p2];
}

init { a.x = 1; }

main {
  a.x -> b.y thru c1;
  a.x -> b.z thru c2;
  0
}
"""


def counter_loop(rounds: int) -> str:
    """A counter passed from a to b through a Buffer1 and back through a
    Sync, `rounds` times, with a Buffer1 selection deciding each round."""
    return RING_AUTOMATA + """
connectors {
  fwd: Buffer1[a/p1, b/p2];
  back: Sync[b/p1, a/p2];
  sel: Buffer1[a/p1, b/p2];
}

init { a.n = 0; b.n = 0; }

main {
  def X = {
    a.n + 1 -> b.n thru fwd;
    b.n -> a.n thru back;
    if a.n < %d then { a -> b [more] thru sel; X }
    else { a -> b [stop] thru sel; 0 }
  } in {
    X
  }
}
""" % rounds


CORRESPOND_PINS = json.loads((Path(__file__).parent / "correspond_pins.json").read_text())


def _pinned_program(name: str) -> textio.Program:
    if name == "TWO_BUFFERS":
        return textio.parse_program(TWO_BUFFERS)
    if name.startswith("counter_loop("):
        return textio.parse_program(counter_loop(int(name[len("counter_loop(") : -1])))
    return load_program(name)


def test_correspondence_reports_are_pinned() -> None:
    # whole reports, gap text and order included, recorded when every pair
    # still projected its own successors and worked out its own verdicts:
    # every fixture at bounds 3 and 25, TWO_BUFFERS (1 gap) and the counter
    # loop of 3 and 10 rounds (2 and 9 gaps)
    keys = [key.rsplit(" ", 1) for key in CORRESPOND_PINS]
    assert sorted(name for name, bound in keys if bound == "3") == list_fixtures(".cr")
    for name, bound in keys:
        report = correspondence_check(_pinned_program(name), bound=int(bound))
        got = {"gaps": report.gaps, "pairs_checked": report.pairs_checked, "truncated": report.truncated}
        assert got == CORRESPOND_PINS[f"{name} {bound}"], (name, bound)


@pytest.mark.parametrize("k,kind,pairs", [(3, "Buffer1", 27), (4, "Sync", 16)])
def test_correspondence_projects_each_choreography_state_once(monkeypatch, k, kind, pairs) -> None:
    # each state used to be projected once for every edge into it, and the
    # pairs reached over k independent pairs have up to k edges in
    calls = []

    def counted(c, sigma):
        calls.append(None)
        return project_network(c, sigma)

    monkeypatch.setattr(harness, "project_network", counted)
    report = correspondence_check(textio.parse_program(parallel_pairs(k, kind)), bound=100)
    assert (report.gaps, report.pairs_checked, report.truncated) == ([], pairs, False)
    assert len(calls) == pairs


def test_pruning_leq_verdicts_are_shared_between_directions(monkeypatch) -> None:
    # on a chain every pair has one step on each side, and each direction
    # asks whether the network step lies above the projected choreography
    # step; asked separately, that took 116 pruning_leq calls here
    calls = []

    def counted(a, b):
        calls.append(None)
        return pruning_leq(a, b)

    monkeypatch.setattr(harness, "pruning_leq", counted)
    report = correspondence_check(textio.parse_program(ring_chain(40)[0]), bound=1000)
    assert (report.pairs_checked, report.gaps, report.truncated) == (59, [], False)
    assert len(calls) <= 116 // 2


def _projection_calls_per_pair(monkeypatch, n: int) -> list[int]:
    calls = [0]
    per_pair: list[int] = []
    project_prefix, search = epp._project_prefix, harness.search

    def counted_prefix(c, r, cont):
        calls[0] += 1
        return project_prefix(c, r, cont)

    def counting_search(start, successors, depth, *args, **kwargs):
        def counted(pair):
            before = calls[0]
            out = successors(pair)
            per_pair.append(calls[0] - before)
            return out

        return search(start, counted, depth, *args, **kwargs)

    prog = textio.parse_program(ring_chain(n)[0])
    with monkeypatch.context() as m:
        m.setattr(epp, "_project_prefix", counted_prefix)
        m.setattr(harness, "search", counting_search)
        report = correspondence_check(prog, bound=10 * n)
    assert (report.gaps, report.truncated) == ([], False)
    assert calls[0] >= 3 * n  # the initial projection is counted, so the count works
    return per_pair


def test_correspondence_pair_cost_does_not_grow_with_chain_length(monkeypatch) -> None:
    # a pair projects only the prefixes its steps built above the projected
    # tail, once per process; re-projecting the whole remaining chain took
    # 3 * 50 and 3 * 400 calls at the first pair
    short = _projection_calls_per_pair(monkeypatch, 50)
    long = _projection_calls_per_pair(monkeypatch, 400)
    assert len(long) > 400
    assert max(short) == max(long) <= 3


def test_advance_until_connector_stops_at_the_right_prefix() -> None:
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)
    cfg2 = advance_until_connector(cfg, prog.connectors, "ac2bs")
    rs = ce.reductions(cfg2, prog.connectors)
    assert any(r.subject == "ac2bs" for r in rs)


# ---------------------------------------------------------------------------
# Step memos

# A counter that swaps between a.n and a.m each round, so a.n holds 1 and
# true in turn.  The term in flight after the deposit into f differs between
# the two rounds only in that value: a memo that mixed up 1 and true would
# deliver the wrong datum, and the delivery from the cell would fail.
TYPE_SWAP = RING_AUTOMATA + """
connectors {
  f: Buffer1[a/p1, b/p2];
  h: Sync[a/p1, b/p2];
  k: Sync[b/p1, a/p2];
}
init { a.n = 1; a.m = true; b.n = 0; b.m = 0; }
main {
  def X = {
    a.n -> b.m thru f;
    a.m -> b.n thru h;
    b.m -> a.m thru k;
    b.n -> a.n thru k;
    X
  } in {
    X
  }
}
"""


# a.x and b.x hold 1 at the first test of a.(x = 1) and true at the second,
# which sends the loop through d, a connector that never fires.  The two
# states differ only in those values, so a search that held 1 and true equal
# would take the second for the first and miss the stuck state.
ONE_THEN_TRUE = RING_AUTOMATA + """
automaton Never {
  states 1, 2;
  ports p1, p2;
  init 1;
  2 -> 2 on p1 > p2;
}
connectors {
  f: Sync[a/p1, b/p2];
  h: Sync[b/p1, a/p2];
  d: Never[a/p1, b/p2];
}
init { a.x = 1; b.x = 1; }
main {
  def X = {
    if a.(x = 1) then {
      a -> b [more] thru f;
      a.(x = x) -> b.x thru f;
      b.x -> a.x thru h;
      X
    } else {
      a -> b [done] thru f;
      a.x -> b.x thru d;
      0
    }
  } in {
    X
  }
}
"""


def _one_for_true(x):
    """x with every true read as 1, through nested tuples."""
    if x is TRUE:
        return 1
    return tuple(_one_for_true(y) for y in x) if isinstance(x, tuple) else x


class _OneIsTrue:
    """A state that equals another when they differ only in holding 1 or
    true: what a search would see if values compared as Python's do."""

    def __init__(self, state, key) -> None:
        self.state, self.key = state, key(state)

    def __eq__(self, other) -> bool:
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def test_states_that_differ_only_in_one_or_true_are_searched_apart() -> None:
    prog = textio.parse_program(ONE_THEN_TRUE)
    g = prog.connectors
    cp = _project(prog)
    start = ce.initial_configuration(prog)
    # each semantics: its search, its start, steps and end, the state as a
    # search that merged 1 and true would key it, and a's x in a state
    for res, first, successors, terminated, key, held in (
        (
            exhaustive_explore(start, g, 30),
            ce.Configuration(ce.normalize(start.chor), start.sigma, start.astate),
            lambda c: ce.reductions(c, g),
            ce.is_terminated,
            lambda c: (c.chor, _one_for_true(c.sigma), c.astate),
            lambda c: dict(c.sigma)[("a", "x")],
        ),
        (
            search(cp.init, lambda n: cpe.cp_reductions(n, cp.automata), 30, cpe.cp_terminated),
            cp.init,
            lambda n: cpe.cp_reductions(n, cp.automata),
            cpe.cp_terminated,
            lambda n: (_one_for_true(n.net.procs), n.astate),
            lambda n: dict(n.net.proc_map()["a"][0])["x"],
        ),
    ):
        assert not res.truncated and not res.terminated
        (stuck,) = res.stuck
        assert held(stuck) is TRUE
        # merged, the state holding true at the test is the one holding 1,
        # so it is never stepped, and the stuck state is never reached
        merged = search(
            _OneIsTrue(first, key),
            lambda w: [s._replace(config=_OneIsTrue(s.config, key)) for s in successors(w.state)],
            30,
            lambda w: terminated(w.state),
        )
        assert not merged.stuck and len(merged.nodes) < len(res.nodes)


def _counter_loop(monkeypatch, rounds: int, kinds: tuple, seed: int = 1) -> textio.Program:
    """The benchmark's counter loop with the given (fwd, back, sel) kinds.
    The seed picks the names."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen

    return textio.parse_program(gen.loop(random.Random(seed), rounds, kinds).text)


def _memo_programs(monkeypatch):
    for name in list_fixtures(".cr"):
        yield 12, load_program(name)
    for seed in range(300):
        yield 12, gen_random_program(random.Random(seed))
    for kinds in itertools.product(("Sync", "Buffer1"), repeat=3):
        yield 40, _counter_loop(monkeypatch, 5, kinds)
    yield 40, textio.parse_program(TYPE_SWAP)


def _same_search(a: Search, b: Search) -> None:
    assert (a.nodes, a.edges, a.stuck, a.terminated, a.truncated) == (
        b.nodes,
        b.edges,
        b.stuck,
        b.terminated,
        b.truncated,
    )


def _same_steps(steps: list[Step], expected: list[Step]) -> None:
    assert [r.label for r in steps] == [r.label for r in expected]
    assert steps == expected


def test_step_memos_are_exact(monkeypatch) -> None:
    # a search or run that keeps one memo reaches the same states, edges and
    # traces, and every state has the same steps in the same order, as the
    # same calls without a memo or with a fresh one
    engaged = 0
    swaps = set()
    for bound, prog in _memo_programs(monkeypatch):
        g = prog.connectors
        start = ce.initial_configuration(prog)
        res = exhaustive_explore(start, g, bound)
        _same_search(res, search(start, lambda c: ce.reductions(c, g), bound, ce.is_terminated))
        shared = StepMemo()
        for cfg in res.nodes:
            steps = ce.reductions(cfg, g, shared)
            _same_steps(steps, ce.reductions(cfg, g))
            _same_steps(steps, ce.reductions(cfg, g, StepMemo()))
            swaps.add(dict(cfg.sigma).get(("a", "n")))
        engaged += bool(shared)
        try:
            cp = _project(prog)
        except epp.Unprojectable:
            continue
        a, n0 = cp.automata, cp.init
        for rng in (None, 0, 1):
            ran = cpe.cp_run(n0, a, 60, None if rng is None else random.Random(rng))
            plain = run(
                n0,
                lambda n: cpe.cp_iter_reductions(n, a),
                cpe.cp_terminated,
                60,
                None if rng is None else random.Random(rng),
            )
            assert (ran.outcome, ran.final) == (plain.outcome, plain.final)
            _same_steps(ran.trace, plain.trace)
        shared = StepMemo()
        net = search(n0, lambda n: cpe.cp_reductions(n, a, shared), bound, cpe.cp_terminated)
        _same_search(net, search(n0, lambda n: cpe.cp_reductions(n, a), bound, cpe.cp_terminated))
        shared = StepMemo()
        for n in net.nodes:
            _same_steps(cpe.cp_reductions(n, a, shared), cpe.cp_reductions(n, a))
        engaged += bool(shared)
    assert engaged >= 2 * 9  # the loops and the swap, on both sides
    assert {1, TRUE} <= swaps


def _defs_built(monkeypatch, rounds: int) -> tuple[int, int]:
    """Def nodes built by one search and BDef nodes built by one run of an
    all-Sync counter loop, counting a construction that finds its node."""
    prog = _counter_loop(monkeypatch, rounds, ("Sync", "Sync", "Sync"))
    cp = _project(prog)
    start = ce.initial_configuration(prog)
    built = {Def: 0, BDef: 0}
    with monkeypatch.context() as m:
        for cls in built:

            def counted_new(cls, *args, _new=cls.__new__):
                built[cls] += 1
                return _new(cls, *args)

            m.setattr(cls, "__new__", counted_new)
        res = exhaustive_explore(start, prog.connectors, 4 * rounds + 2)
        ran = cpe.cp_run(cp.init, cp.automata, max_steps=4 * rounds + 2)
    assert len(res.nodes) == 4 * rounds + 1 and not res.truncated
    assert ran.outcome is cpe.Outcome.TERMINATED and len(ran.trace) == 4 * rounds
    return built[Def], built[BDef]


def test_a_loop_builds_its_defs_once_per_search_and_run(monkeypatch) -> None:
    # the memo rebuilds a loop's terms in its first round only: later rounds
    # find each successor term in it
    assert _defs_built(monkeypatch, 20) == _defs_built(monkeypatch, 80)


def test_step_memos_keep_no_term_alive(monkeypatch) -> None:
    # each memo lives as long as the call that makes it: once the results
    # are dropped, every term those calls built has left its table.  The
    # loop's names are its own, so no term of another test can stand in.
    prog = _counter_loop(monkeypatch, 20, ("Buffer1", "Buffer1", "Sync"), seed=7)
    cp = _project(prog)
    start = ce.initial_configuration(prog)
    tables = (Def._table, Prefix._table, BDef._table)
    gc.collect()
    before = [len(t) for t in tables]
    ran = cpe.cp_run(cp.init, cp.automata, max_steps=200)
    res = exhaustive_explore(start, prog.connectors, 200)
    rep = correspondence_check(prog, bound=40)
    assert ran.outcome is cpe.Outcome.TERMINATED and res.terminated and rep.ok
    assert [len(t) for t in tables] > before
    del ran, res, rep
    gc.collect()
    assert [len(t) for t in tables] == before
