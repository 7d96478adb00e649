from __future__ import annotations

import itertools
import random

import pytest

from choreo import cp_engine as cpe
from choreo import epp, harness, textio
from choreo import chor_engine as ce
from choreo.cli import _project
from choreo.core import BOT, TRUE, Const, Constraint, Flow, Label, Mem, Port, Var
from choreo.epp import BCall, BDef, BEnd, Branch, PortName, Recv, SelSend, Send

from conftest import RING_AUTOMATA, fixture_text, load_program, parallel_pairs, ring_chain


def _net(**procs) -> cpe.Network:
    return cpe.Network.make({q: (store, b) for q, (store, b) in procs.items()})


def _phi(*pairs) -> Constraint:
    return Constraint(frozenset(Flow(a, b) for a, b in pairs))


O = PortName("o", "a", "g")
I = PortName("i", "b", "g")
I2 = PortName("i", "c", "g")


def _then_send(q: str, var: str):
    # a continuation for receiver q, so that q is still in the network
    # after the step and its store can be read
    return Send(PortName("o", q, "h"), Var(var), BEnd())


def test_normalize_behaviour_drops_finished_defs() -> None:
    b = BDef("X", Send(O, Var("x"), BEnd()), BEnd())
    assert cpe.normalize_behaviour(b) == BEnd()


def test_head_focus_unfolds_defs_once() -> None:
    b = BDef("X", Send(O, Var("x"), BCall("X")), BCall("X"))
    focus = cpe.head_focus(b)
    assert isinstance(focus.action, Send)


def test_direct_send_recv_over_port_flow() -> None:
    net = _net(
        a=({"x": 7}, Send(O, Var("x"), BEnd())),
        b=({}, Recv(I, "y", _then_send("b", "y"))),
    )
    m = cpe.cp_match_transition(net, _phi((Port("o_a_g"), Port("i_b_g"))), {})
    assert not isinstance(m, str)
    net2, writes = m
    assert writes == {}
    assert net2.proc_map()["b"][0] == {"y": 7}


def test_send_fans_out_to_all_flows_of_its_port() -> None:
    net = _net(
        a=({"x": 7}, Send(O, Var("x"), BEnd())),
        b=({}, Recv(I, "y", _then_send("b", "y"))),
        c=({}, Recv(I2, "z", _then_send("c", "z"))),
    )
    phi = _phi(
        (Port("o_a_g"), Port("i_b_g")),
        (Port("o_a_g"), Port("i_c_g")),
        (Port("o_a_g"), Mem("m")),
    )
    m = cpe.cp_match_transition(net, phi, {"m": BOT})
    assert not isinstance(m, str)
    net2, writes = m
    assert writes == {"m": 7}
    assert net2.proc_map()["b"][0] == {"y": 7}
    assert net2.proc_map()["c"][0] == {"z": 7}


def test_selection_drives_branches() -> None:
    net = _net(
        a=({}, SelSend(O, "buy", BEnd())),
        b=({}, Branch.make(I, {"buy": BEnd(), "quit": BEnd()})),
    )
    m = cpe.cp_match_transition(net, _phi((Port("o_a_g"), Port("i_b_g"))), {})
    assert not isinstance(m, str)
    missing = _net(
        a=({}, SelSend(O, "other", BEnd())),
        b=({}, Branch.make(I, {"buy": BEnd()})),
    )
    m2 = cpe.cp_match_transition(missing, _phi((Port("o_a_g"), Port("i_b_g"))), {})
    assert m2 == "ports"


def test_cell_delivery_accepts_any_stored_datum() -> None:
    net = _net(b=({}, Recv(I, "y", _then_send("b", "y"))))
    phi = _phi((Mem("m"), Port("i_b_g")))
    m = cpe.cp_match_transition(net, phi, {"m": "anything"})
    assert not isinstance(m, str)
    assert m[0].proc_map()["b"][0] == {"y": "anything"}
    assert cpe.cp_match_transition(net, phi, {"m": BOT}) == "value"


def test_branch_from_cell_needs_a_known_label() -> None:
    net = _net(b=({}, Branch.make(I, {"buy": BEnd()})))
    phi = _phi((Mem("m"), Port("i_b_g")))
    assert not isinstance(cpe.cp_match_transition(net, phi, {"m": Label("buy")}), str)
    assert cpe.cp_match_transition(net, phi, {"m": Label("zz")}) == "value"
    assert cpe.cp_match_transition(net, phi, {"m": "buy"}) == "value"


def test_projected_booksale_runs_to_completion() -> None:
    prog = load_program("booksale.cr")
    cp = _project(prog)
    res = cpe.cp_run(cp.init, cp.automata)
    assert res.outcome is cpe.Outcome.TERMINATED
    stores = {q: store for q, (store, _) in res.final.net.proc_map().items()}
    assert stores == {}


def test_projected_resp3_terminates_where_the_choreography_stalls() -> None:
    # the crossed relay swaps the two deliveries; the choreography refuses the
    # wrong values and gets stuck, but network receives accept any datum, so
    # the projected side runs to completion with the payloads exchanged
    prog = load_program("booksale_resp3.cr")
    chor_res = ce.run(ce.initial_configuration(prog), prog.connectors)
    assert chor_res.outcome is ce.Outcome.STUCK
    cp = _project(prog)
    res = cpe.cp_run(cp.init, cp.automata)
    assert res.outcome is cpe.Outcome.TERMINATED


def test_parse_cp_executes_like_the_projection() -> None:
    cp = textio.parse_cp(fixture_text("booksale.cp"))
    res = cpe.cp_run(cp.init, cp.automata)
    assert res.outcome is cpe.Outcome.TERMINATED
    assert len(res.trace) == 7


def test_behaviour_leq_allows_wider_branches() -> None:
    small = Branch.make(I, {"buy": BEnd()})
    big = Branch.make(I, {"buy": BEnd(), "quit": BEnd()})
    assert cpe.behaviour_leq(small, big)
    assert not cpe.behaviour_leq(big, small)


def test_behaviour_leq_follows_recursion() -> None:
    b1 = BDef("X", Send(O, Var("x"), BCall("X")), BCall("X"))
    b2 = BDef("Y", Send(O, Var("x"), BCall("Y")), BCall("Y"))
    assert cpe.behaviour_leq(b1, b2)
    other = BDef("X", Send(PortName("o", "a", "h"), Var("x"), BCall("X")), BCall("X"))
    assert not cpe.behaviour_leq(b1, other)


def test_behaviour_leq_on_one_call_under_different_definitions() -> None:
    # both sides reach the very same call object, but it names different bodies
    call = BCall("X")
    b1 = BDef("X", Send(O, Var("x"), BEnd()), call)
    b2 = BDef("X", Send(O, Var("z"), BEnd()), call)
    assert not cpe.behaviour_leq(b1, b2)
    assert cpe.behaviour_leq(b1, BDef("X", Send(O, Var("x"), BEnd()), call))


def test_behaviour_leq_keeps_constant_types_apart_across_cases() -> None:
    # a walk that remembered its pairs by a lax equality, one where
    # Send(O, 1) == Send(O, true), took the second case as already related
    one, true = Send(O, Const(1), BEnd()), Send(O, Const(TRUE), BEnd())
    b1 = Branch.make(I, {"l1": one, "l2": true})
    b2 = Branch.make(I, {"l1": one, "l2": Send(O, Const(1), BEnd())})
    assert not cpe.behaviour_leq(b1, b2)
    assert cpe.behaviour_leq(b2, Branch.make(I, {"l1": one, "l2": one}))


def test_pruning_leq_on_networks() -> None:
    n1 = _net(a=({}, Branch.make(I, {"buy": BEnd()})))
    n2 = _net(a=({}, Branch.make(I, {"buy": BEnd(), "quit": BEnd()})))
    assert cpe.pruning_leq(n1, n2)
    assert not cpe.pruning_leq(n2, n1)
    # stores must agree exactly
    n3 = _net(a=({"x": 1}, Branch.make(I, {"buy": BEnd()})))
    assert not cpe.pruning_leq(n1, n3)


def test_pruning_leq_compares_stores_type_strictly() -> None:
    # a variable holding true is not one holding 1
    prog = textio.parse_program(
        fixture_text("buffer1.ca")
        + "connectors { g: Buffer1[a/p1, b/p2]; }\n"
        + "init { a.x = 1; }\n"
        + "main { a.x -> b.y thru g; 0 }\n"
    )
    chor = ce.normalize(prog.main)
    projected = epp.project_network(chor, {("a", "x"): 1})
    with_true = epp.project_network(chor, {("a", "x"): TRUE})
    assert projected != with_true
    assert cpe.pruning_leq(projected, projected)
    assert not cpe.pruning_leq(projected, with_true)
    assert not cpe.pruning_leq(with_true, projected)


def _action_chain(n: int, last) -> "epp.Behaviour":
    # n actions cycling through every kind with one continuation, built
    # from the end, with `last` as the final one
    b = last
    for i in range(n - 1):
        kind = i % 4
        if kind == 0:
            b = Send(O, Var("x"), b)
        elif kind == 1:
            b = Recv(I, "y", b)
        elif kind == 2:
            b = SelSend(O, "go", b)
        else:
            b = Branch.make(I, {"go": b})
    return b


def test_behaviour_leq_loops_along_long_spines() -> None:
    # b2 offers one more branch label at its foot, so the two share no node
    # and the walk runs the whole length of both spines
    b1 = _action_chain(2000, Branch.make(I, {"go": BEnd()}))
    b2 = _action_chain(2000, Branch.make(I, {"go": BEnd(), "stop": BEnd()}))
    other = _action_chain(2000, Send(O, Var("z"), BEnd()))
    assert b1 is not b2
    assert cpe.behaviour_leq(b1, b2)
    assert not cpe.behaviour_leq(b2, b1)
    assert not cpe.behaviour_leq(b1, other)
    assert not cpe.behaviour_leq(other, b1)


def test_terminated_network_is_empty_after_normalization() -> None:
    assert cpe.cp_terminated(cpe.NetConfiguration.make(_net(a=({}, BEnd())), {}))


def test_long_chain_simulates_to_its_replayed_store() -> None:
    text, steps, _, exits = ring_chain(600)
    cp = _project(textio.parse_program(text))
    res = cpe.cp_run(cp.init, cp.automata, max_steps=2 * steps)
    assert res.outcome is cpe.Outcome.TERMINATED
    assert len(res.trace) == steps
    # a process leaves the network when it finishes, so take each process's
    # store from the last configuration that still holds it
    last = {q: store for q, store, _ in cp.init.net.procs}
    for r in res.trace:
        last.update((q, store) for q, store, _ in r.config.net.procs)
    assert {(q, x): v for q, store in last.items() for x, v in store} == exits


@pytest.mark.parametrize("k", [4, 12])
def test_a_run_builds_only_the_successor_it_takes(monkeypatch, k: int) -> None:
    # every pair can move at every state, but without a seed a run takes the
    # first step, and neither engine's step generator builds another
    prog = textio.parse_program(parallel_pairs(k, "Sync"))
    cp = _project(prog)
    built = [0]
    for cls in (ce.Configuration, cpe.NetConfiguration):
        def counted_init(self, *args, _init=cls.__init__):
            built[0] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    for run, start, automata in (
        (ce.run, ce.initial_configuration(prog), prog.connectors),
        (cpe.cp_run, cp.init, cp.automata),
    ):
        built[0] = 0
        res = run(start, automata)
        assert res.outcome is cpe.Outcome.TERMINATED
        assert built[0] == len(res.trace) == k


def _fixture_networks():
    """Each fixture's network: the projection of every projectable `.cr`
    program, then every `.cp` file."""
    for name in harness.list_fixtures(".cr"):
        try:
            yield _project(load_program(name))
        except epp.Unprojectable:
            pass
    for name in harness.list_fixtures(".cp"):
        yield textio.parse_cp(fixture_text(name))


def test_a_run_without_a_seed_hashes_no_configuration(monkeypatch) -> None:
    # a run takes each state's first step, and the dedup of a state's steps
    # hashes a key only once a second one comes
    hashed = [0]
    for cls in (ce.Configuration, cpe.NetConfiguration, cpe.Network):
        def counted_hash(self, _hash=cls.__hash__):
            hashed[0] += 1
            return _hash(self)

        monkeypatch.setattr(cls, "__hash__", counted_hash)
    pairs = [
        textio.parse_program(parallel_pairs(k, kind))
        for k, kind in ((8, "Sync"), (8, "Buffer1"), (64, "Sync"))
    ]
    programs = [load_program(name) for name in harness.list_fixtures(".cr")] + pairs
    runs = [(ce.run, ce.initial_configuration(prog), prog.connectors) for prog in programs]
    networks = itertools.chain(_fixture_networks(), map(_project, pairs))
    runs += [(cpe.cp_run, cp.init, cp.automata) for cp in networks]
    for run, start, automata in runs:
        hashed[0] = 0
        res = run(start, automata, max_steps=70)
        assert hashed[0] == 0
        assert all(step.config._hash is None for step in res.trace)  # nor at construction
    assert res.outcome is cpe.Outcome.TERMINATED and len(res.trace) == 64
    # the count works: a seeded run lists every step, and dedup hashes them
    run(start, automata, max_steps=70, rng=random.Random(0))
    assert hashed[0] > 0


def test_a_network_step_normalizes_only_the_processes_it_moves(monkeypatch) -> None:
    # each Sync step ends two processes, and no other process is looked at
    per_step = []
    for k in (8, 32, 64):
        cp = _project(textio.parse_program(parallel_pairs(k, "Sync")))
        calls = [0]

        def counted(b, _normalize=cpe.normalize_behaviour):
            calls[0] += 1
            return _normalize(b)

        with monkeypatch.context() as m:
            m.setattr(cpe, "normalize_behaviour", counted)
            res = cpe.cp_run(cp.init, cp.automata)
        assert res.outcome is cpe.Outcome.TERMINATED and len(res.trace) == k
        per_step.append(calls[0] / k)
    assert per_step[0] == per_step[1] == per_step[2]


# each process ends inside the scope of a def: by a send, a send into a
# cell, a receive from a cell, a branch or a conditional
SCOPE_ENDS = RING_AUTOMATA + """
connectors { g: Sync[a/p1, b/p2]; h: Buffer1[a/p1, b/p2]; }
init { a.x = %d; }
main {
  def X = { a.x -> b.y thru g; X } in {
    a.x -> b.y thru g;
    if a.x = 1 then { a -> b [ok] thru g; a.x -> b.z thru h; 0 }
    else { a -> b [ko] thru g; if a.x = 2 then { 0 } else { 0 } }
  }
}
"""


def test_network_successors_are_normal_by_construction(monkeypatch) -> None:
    # every successor equals the full normalisation of the step's result
    # with no behaviour normalized, in the same order, and normalize_network
    # hands it back as it is
    def unnormalized_steps(cfg, automata):
        with monkeypatch.context() as m:
            m.setattr(cpe, "normalize_behaviour", lambda b: b)
            return cpe.cp_reductions(cfg, automata)

    checked = 0
    scope_ends = [_project(textio.parse_program(SCOPE_ENDS % x)) for x in (1, 3)]
    for cp in itertools.chain(scope_ends, _networks()):
        start = cp.init
        seen, frontier = {start}, [start]
        while frontier and len(seen) < 300:
            nxt = []
            for cfg in frontier:
                steps = cpe.cp_reductions(cfg, cp.automata)
                want: list[tuple] = []
                for r in unnormalized_steps(cfg, cp.automata):
                    # a fresh network, so the full normalisation runs
                    net = cpe.normalize_network(cpe.Network(r.config.net.procs))
                    key = r[:-1] + (net, r.config.astate)
                    if key not in want:
                        want.append(key)
                assert [r[:-1] + (r.config.net, r.config.astate) for r in steps] == want
                for r in steps:
                    assert cpe.normalize_network(r.config.net) is r.config.net
                    checked += 1
                    if r.config not in seen:
                        seen.add(r.config)
                        nxt.append(r.config)
            frontier = nxt
    assert checked > 400


BAD_GUARD = RING_AUTOMATA + """
connectors { g: Sync[a/p1, b/p2]; }
init { a.x = 1; c.v = 5; }
main { a.x -> b.y thru g; if c.v then { 0 } else { 0 } }
"""


def test_a_bad_guard_raises_only_when_a_run_asks_for_its_step() -> None:
    # the com step comes first and a run without a seed takes it without
    # evaluating c's guard; listing every step, or a seeded run, evaluates
    # the guard at once
    prog = textio.parse_program(BAD_GUARD)
    cfg = ce.initial_configuration(prog)
    cp = _project(prog)
    for run, steps, start, automata in (
        (ce.run, ce.iter_reductions, cfg, prog.connectors),
        (cpe.cp_run, cpe.cp_iter_reductions, cp.init, cp.automata),
    ):
        res = run(start, automata, max_steps=0)
        assert res.outcome is cpe.Outcome.MAX_STEPS and res.trace == []
        first = next(steps(start, automata))
        assert (first.kind, first.subject) == ("com", "g")
        with pytest.raises(ce.EvalError, match="guard at c is not a boolean: 5"):
            next(steps(first.config, automata))
        with pytest.raises(ce.EvalError, match="guard at c is not a boolean: 5"):
            run(start, automata)
        with pytest.raises(ce.EvalError):
            list(steps(start, automata))
        with pytest.raises(ce.EvalError):
            run(start, automata, max_steps=0, rng=random.Random(0))


_NODES = (Send, Recv, SelSend, Branch, epp.BCond, BDef)


def _nodes_per_step(monkeypatch, n: int) -> list[int]:
    # a run takes only the first step of each state, so each state's steps
    # are listed here in full: the bound covers every successor, as
    # `exhaustive_explore`, `check` and `correspond` build them
    built = [0]
    per_step: list[int] = []
    iter_reductions = cpe.cp_iter_reductions

    def counted_iter_reductions(cfg, automata):
        before = built[0]
        out = list(iter_reductions(cfg, automata))
        per_step.append(built[0] - before)
        return out

    text, steps, _, _ = ring_chain(n)
    prog = textio.parse_program(text)
    with monkeypatch.context() as m:
        for cls in _NODES:
            # count every construction, also one that finds the node built
            def counted_new(cls, *args, _new=cls.__new__):
                built[0] += 1
                return _new(cls, *args)

            m.setattr(cls, "__new__", counted_new)
        m.setattr(cpe, "cp_iter_reductions", counted_iter_reductions)
        cp = _project(prog)
        assert built[0] >= n  # the projection is counted, so the count works
        res = cpe.cp_run(cp.init, cp.automata, max_steps=2 * steps)
    assert res.outcome is cpe.Outcome.TERMINATED
    assert len(per_step) == steps
    return per_step


def test_network_step_cost_does_not_grow_with_chain_length(monkeypatch) -> None:
    # a step rebuilds no behaviour above the actions it consumes, and
    # normalisation returns the normal rest as it is
    short, long = _nodes_per_step(monkeypatch, 50), _nodes_per_step(monkeypatch, 400)
    assert max(short) == max(long) <= 2


def _networks():
    yield from _fixture_networks()
    for seed in range(100):
        yield _project(harness.gen_random_program(random.Random(seed)))


def test_cached_port_classification_is_exact(monkeypatch) -> None:
    # the same reductions, in the same order, and the same stuck reports as
    # when every constraint is classified afresh at every attempt
    def uncached(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(cpe, "_port_plan", cpe._owner_ports)
            return fn(*args)

    stuck = 0
    for cp in _networks():
        start = cp.init
        seen, frontier = {start}, [start]
        while frontier and len(seen) < 60:
            nxt = []
            for cfg in frontier:
                rs = cpe.cp_reductions(cfg, cp.automata)
                assert rs == uncached(cpe.cp_reductions, cfg, cp.automata)
                if not rs and not cpe.cp_terminated(cfg):
                    stuck += 1
                    rep = cpe.cp_report_stuck(cfg, cp.automata)
                    assert rep == uncached(cpe.cp_report_stuck, cfg, cp.automata)
                for r in rs:
                    if r.config not in seen:
                        seen.add(r.config)
                        nxt.append(r.config)
            frontier = nxt
    assert stuck == 2  # booksale_resp1 and once


EMPTY_BUFFER = """
automaton g {
  states 1, 2;
  ports o_a_g, i_b_g;
  mems m;
  init 2;
  1 -> 2 on o_a_g > m;
  2 -> 1 on m > i_b_g;
}

init {
}

network {
  b {
    recv i_g y;
    0
  }
}
"""


def test_stuck_networks_keep_their_classification() -> None:
    # every stuck network state the fixtures reach, and a receiver facing an
    # empty cell
    cp = _project(load_program("booksale_resp1.cr"))
    res = cpe.cp_run(cp.init, cp.automata)
    assert res.outcome is cpe.Outcome.STUCK
    rep = cpe.cp_report_stuck(res.final, cp.automata)
    assert rep.classification == "port-mismatch"
    assert len(rep.details) == 4
    assert all(d.endswith(": port mismatch") for d in rep.details)
    empty = textio.parse_cp(EMPTY_BUFFER)
    res = cpe.cp_run(empty.init, empty.automata)
    assert res.outcome is cpe.Outcome.STUCK and not res.trace
    rep = cpe.cp_report_stuck(res.final, empty.automata)
    assert rep.classification == "value-mismatch"
    assert rep.details == ["g at state 2: m > i_b_g: value mismatch"]


def test_net_configuration_equality_is_type_strict() -> None:
    def cfg(x, m):
        return cpe.NetConfiguration.make(_net(a=({"x": x}, BEnd())), {"g": ("1", {"m": m})})

    one, true = cfg(1, BOT), cfg(TRUE, BOT)
    assert one != true
    assert len({one, true}) == 2
    cell1, cell_true = cfg(1, 1), cfg(1, TRUE)
    assert cell1 != cell_true and len({cell1, cell_true}) == 2
    assert cfg(1, BOT) == one and len({one, cfg(1, BOT)}) == 1
    assert hash(one) == hash((one.net, one.astate))


def test_net_successors_share_what_their_step_leaves_alone() -> None:
    prog = textio.parse_program(fixture_text("reorder.cr"))
    cp = _project(prog)
    steps = cpe.cp_reductions(cp.init, cp.automata)
    assert {s.subject for s in steps} == {"g1", "g2"}
    for step in steps:
        for mine, theirs in zip(step.config.astate, cp.init.astate):
            assert (mine is theirs) is (mine[0] != step.subject)
