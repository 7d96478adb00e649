from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import random
from collections import deque
from pathlib import Path

import pytest

from choreo import chor_engine as ce
from choreo import compat, harness, textio
from choreo.core import (
    BOT,
    Call,
    Const,
    Constraint,
    Def,
    END,
    FALSE,
    Flow,
    Label,
    Mem,
    Port,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    TRUE,
    ValCom,
    Var,
    sorted_etas,
)

from conftest import RING_AUTOMATA, list_fixtures, load_program, ring_chain
from support import gen_random_program


def _phi(*pairs) -> Constraint:
    return Constraint(frozenset(Flow(a, b) for a, b in pairs))


def test_eval_expr_reads_the_owner_slice() -> None:
    sigma = {("a", "x"): 3, ("b", "x"): 9}
    assert ce.eval_expr(Var("x"), sigma, "a") == 3
    assert ce.eval_expr(Var("x"), sigma, "b") == 9
    with pytest.raises(ce.EvalError):
        ce.eval_expr(Var("zz"), sigma, "a")


def test_match_port_to_port_completes() -> None:
    etas = frozenset({ValCom("a", Var("x"), "c", "t")})
    sigma = {("a", "x"): "foo"}
    mu = {}
    m = ce.match_transition(etas, _phi((Port("a"), Port("c"))), sigma, mu)
    assert m is not None
    out, sigma2, mu2 = m
    assert out == frozenset()
    assert sigma2[("c", "t")] == "foo"
    assert {**mu, **mu2} == {}


def test_match_deposit_leaves_runtime_receive() -> None:
    etas = frozenset({ValCom("a", Var("x"), "c", "t")})
    sigma = {("a", "x"): "foo"}
    m = ce.match_transition(etas, _phi((Port("a"), Mem("m"))), sigma, {"m": BOT})
    out, sigma2, mu2 = m
    assert out == frozenset({RecvVal("c", "t", "foo")})
    assert mu2["m"] == "foo"
    assert ("c", "t") not in sigma2


def test_match_delivery_needs_the_stored_value() -> None:
    etas = frozenset({RecvVal("c", "t", "foo")})
    phi = _phi((Mem("m"), Port("c")))
    ok = ce.match_transition(etas, phi, {}, {"m": "foo"})
    assert ok is not None
    assert ok[1][("c", "t")] == "foo"
    assert ce.match_transition(etas, phi, {}, {"m": "bar"}) is None
    assert ce.match_transition(etas, phi, {}, {"m": BOT}) is None


def test_match_value_equality_is_typed() -> None:
    etas = frozenset({RecvVal("c", "t", TRUE)})
    phi = _phi((Mem("m"), Port("c")))
    # the stored datum has the wrong type: a boolean is not an int
    assert ce.match_transition(etas, phi, {}, {"m": 1}) is None
    assert ce.match_transition(etas, phi, {}, {"m": TRUE}) is not None
    sel = frozenset({RecvSel("c", "go")})
    assert ce.match_transition(sel, phi, {}, {"m": "go"}) is None
    assert ce.match_transition(sel, phi, {}, {"m": Label("go")}) is not None


def test_match_failure_stages() -> None:
    etas = frozenset({RecvVal("c", "t", "foo")})
    phi = _phi((Mem("m"), Port("c")))
    assert ce.match_constraint(etas, phi, {"m": "bar"}) == "value"
    wrong_port = _phi((Mem("m"), Port("zz")))
    assert ce.match_constraint(etas, wrong_port, {"m": "foo"}) == "ports"


def test_match_sender_participates_maximally() -> None:
    # both of a's sends must ride the same step; one deposit flow serves both
    etas = frozenset(
        {ValCom("a", Var("x"), "b", "t"), ValCom("a", Var("x"), "c", "u")}
    )
    sigma = {("a", "x"): 5}
    m = ce.match_transition(etas, _phi((Port("a"), Mem("m"))), sigma, {"m": BOT})
    out, _, mu2 = m
    assert out == frozenset({RecvVal("b", "t", 5), RecvVal("c", "u", 5)})
    assert mu2["m"] == 5


def test_match_reads_cells_before_writing_them() -> None:
    # accept a new datum into the cell while delivering the old one
    etas = frozenset({ValCom("a", Var("x"), "c", "t"), RecvVal("b", "u", "old")})
    sigma = {("a", "x"): "new"}
    phi = _phi((Port("a"), Mem("m")), (Mem("m"), Port("b")))
    m = ce.match_transition(etas, phi, sigma, {"m": "old"})
    assert m is not None
    out, sigma2, mu2 = m
    assert out == frozenset({RecvVal("c", "t", "new")})
    assert sigma2[("b", "u")] == "old"
    assert mu2["m"] == "new"


def test_match_deposit_and_deliver_same_step_through_other_cell() -> None:
    # the deposited communication is also delivered, via a second cell that
    # happens to hold an equal value
    etas = frozenset({ValCom("q", Var("x"), "p", "w")})
    sigma = {("q", "x"): "dq"}
    phi = _phi((Port("q"), Mem("c1")), (Mem("c2"), Port("p")))
    mu = {"c1": BOT, "c2": "dq"}
    m = ce.match_transition(etas, phi, sigma, mu)
    assert m is not None
    out, sigma2, mu2 = m
    assert out == frozenset()
    assert sigma2[("p", "w")] == "dq"
    assert {**mu, **mu2} == {"c1": "dq", "c2": "dq"}
    # never through the deposit's own cell
    own = _phi((Port("q"), Mem("c1")), (Mem("c1"), Port("p")))
    assert ce.match_transition(etas, own, sigma, {"c1": "dq", "c2": BOT}) is None
    # and not when the second cell holds a different value
    assert ce.match_transition(etas, phi, sigma, {"c1": BOT, "c2": "zz"}) is None


def test_match_self_copy_runs_before_other_writers() -> None:
    phi = _phi((Mem("c2"), Mem("c2")), (Mem("c1"), Mem("c2")))
    m = ce.match_transition(frozenset(), phi, {}, {"c1": "v1", "c2": "v2"})
    assert m is not None
    assert m[2]["c2"] == "v1"


def test_match_rejects_memory_cycles() -> None:
    phi = _phi((Mem("c1"), Mem("c2")), (Mem("c2"), Mem("c1")))
    assert ce.match_transition(frozenset(), phi, {}, {"c1": "a", "c2": "b"}) is None
    chain = _phi((Mem("c1"), Mem("c2")), (Mem("c2"), Mem("c3")))
    mu = {"c1": "a", "c2": "b", "c3": BOT}
    m = ce.match_transition(frozenset(), chain, {}, mu)
    assert {**mu, **m[2]} == {"c1": "a", "c2": "a", "c3": "b"}


def _matches(etas, phi, mu, store) -> tuple:
    """The concrete and the symbolic outcome of one match."""
    return ce.match_constraint(etas, phi, mu, store), compat.abstract_match(etas, phi, mu, {})


def test_match_plans_give_what_a_fresh_match_gives() -> None:
    # a plan is worked out once per interaction set and constraint; a match
    # from a cold cache, from a warm one, and for an equal set built apart
    # ends the same, on every exposure of every fixture's first states
    for name in list_fixtures(".cr"):
        prog = load_program(name)
        start = ce.initial_configuration(prog)
        seen, queue = {start}, deque([start])
        for _ in range(100):
            if not queue:
                break
            cfg = queue.popleft()
            store = ce.SortedPairs(cfg.sigma)
            for ex in ce.head_exposures(cfg.chor):
                mu = ce.SortedPairs(cfg.astate[ce.find_key(cfg.astate, ex.subject)][1][1])
                apart = frozenset(dataclasses.replace(e) for e in reversed(sorted_etas(ex.what)))
                for t in prog.connectors[ex.subject].transitions:
                    ce._match_plan.cache_clear()
                    cold = _matches(ex.what, t.phi, mu, store)
                    assert _matches(ex.what, t.phi, mu, store) == cold
                    assert _matches(apart, t.phi, mu, store) == cold
                    ce._match_plan.cache_clear()
                    assert _matches(apart, t.phi, mu, store) == cold
            for r in ce.reductions(cfg, prog.connectors):
                if r.config not in seen:
                    seen.add(r.config)
                    queue.append(r.config)


def test_match_plans_are_type_strict() -> None:
    # 1 and true are different data, so sets that differ only there have
    # plans of their own, whichever is matched first
    deliver = _phi((Mem("m"), Port("c")))
    hand_over = _phi((Port("a"), Port("c")))
    for first, second in ((1, TRUE), (TRUE, 1)):
        ce._match_plan.cache_clear()
        for v in (first, second):
            got = ce.match_constraint(frozenset({RecvVal("c", "t", v)}), deliver, {"m": 1}, {})
            assert got == ("value" if v is TRUE else (frozenset(), {("c", "t"): 1}, {}))
            etas = frozenset({ValCom("a", Const(v), "c", "t")})
            assert ce.match_constraint(etas, hand_over, {}, {}) == (
                frozenset(),
                {("c", "t"): v},
                {},
            )


def test_match_plans_keep_no_term_alive() -> None:
    # the plan cache holds interaction sets and constraints, never a term:
    # once a long run is dropped, its terms leave the weak table
    text, steps, _, _ = ring_chain(2000)
    gc.collect()
    before = len(Prefix._table)
    prog = textio.parse_program(text)
    res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=2 * steps)
    assert res.outcome is ce.Outcome.TERMINATED
    assert ce._match_plan.cache_info().currsize > 0
    assert len(Prefix._table) >= before + 2000
    del prog, res
    assert len(Prefix._table) == before


def test_head_exposures_cross_independent_prefixes() -> None:
    prog = load_program("reorder.cr")
    exps = ce.head_exposures(prog.main)
    sets = {(e.subject, e.what) for e in exps}
    # the t/v exchange on g2 is process-disjoint from everything on g1
    assert any(c == "g2" and any(x.receiver == "v" for x in s) for c, s in sets)


def test_head_exposures_merge_and_resplit_on_same_connector() -> None:
    prog = load_program("loop_barrier.cr")
    exps = ce.head_exposures(prog.main)
    # the r/s pair buried two prefixes deep pairs up with the first p/q set
    assert any(
        e.what
        == frozenset(
            {ValCom("p", Var("x"), "q", "y"), ValCom("r", Var("z"), "s", "w")}
        )
        for e in exps
    )


def test_cond_exposures_and_reductions() -> None:
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)
    rs = ce.reductions(cfg, prog.connectors)
    assert len(rs) == 1
    assert rs[0].kind == "com" and rs[0].subject == "a2c"


def test_unfold_is_once_per_name() -> None:
    c = Def("X", Prefix(frozenset({Sel("a", "b", "go")}), "g", Call("X")), Call("X"))
    exps = ce.head_exposures(c)
    assert len(exps) == 1


def test_run_terminates_and_counts_steps() -> None:
    prog = load_program("booksale.cr")
    res = ce.run(ce.initial_configuration(prog), prog.connectors)
    assert res.outcome is ce.Outcome.TERMINATED
    assert len(res.trace) == 7


def test_run_seeded_is_deterministic() -> None:
    prog = load_program("booksale_alternator.cr")
    r1 = ce.run(ce.initial_configuration(prog), prog.connectors, rng=random.Random(3))
    r2 = ce.run(ce.initial_configuration(prog), prog.connectors, rng=random.Random(3))
    assert [r.subject for r in r1.trace] == [r.subject for r in r2.trace]
    assert r1.outcome is ce.Outcome.TERMINATED


def test_run_hits_max_steps_on_a_loop() -> None:
    prog = load_program("loop_barrier.cr")
    res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=9)
    assert res.outcome is ce.Outcome.MAX_STEPS


def test_stuck_report_port_and_value_classes() -> None:
    p1 = load_program("booksale_resp1.cr")
    res1 = ce.run(ce.initial_configuration(p1), p1.connectors)
    assert res1.outcome is ce.Outcome.STUCK
    assert ce.report_stuck(res1.final, p1.connectors).classification == "port-mismatch"
    p3 = load_program("booksale_resp3.cr")
    res3 = ce.run(ce.initial_configuration(p3), p3.connectors)
    assert res3.outcome is ce.Outcome.STUCK
    rep = ce.report_stuck(res3.final, p3.connectors)
    assert rep.classification == "value-mismatch"
    assert rep.details


def test_normalize_flattens_ended_scopes() -> None:
    p = Prefix(frozenset({Sel("a", "b", "go")}), "g", END)
    assert ce.normalize(Def("X", p, END)) == END
    assert ce.normalize(Prefix(frozenset(), "g", p)) == p
    assert ce.normalize(p) is p  # already normal: returned as it is


def test_long_chain_runs_to_its_replayed_store() -> None:
    text, steps, store, _ = ring_chain(500)
    prog = textio.parse_program(text)
    res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=2 * steps)
    assert res.outcome is ce.Outcome.TERMINATED
    assert len(res.trace) == steps
    assert res.final.sigma_map() == store


def _splits_per_step(monkeypatch, n: int) -> list[int]:
    # a run takes only the first step of each state, so each state's steps
    # are listed here in full: the bound is on the whole exposure walk, as
    # `exhaustive_explore`, `check` and `correspond` consume it
    calls = [0]
    per_step: list[int] = []
    splits, iter_reductions = ce._valid_splits, ce.iter_reductions

    def counted_splits(etas):
        calls[0] += 1
        return splits(etas)

    def counted_iter_reductions(cfg, g):
        before = calls[0]
        out = list(iter_reductions(cfg, g))
        per_step.append(calls[0] - before)
        return out

    text, steps, _, _ = ring_chain(n)
    prog = textio.parse_program(text)
    with monkeypatch.context() as m:
        m.setattr(ce, "_valid_splits", counted_splits)
        m.setattr(ce, "iter_reductions", counted_iter_reductions)
        res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=2 * steps)
    assert res.outcome is ce.Outcome.TERMINATED
    assert len(per_step) == steps
    return per_step


def _wide_set_program(n: int) -> str:
    """a0.x -> z.y through the Sync h, then the set of the n independent
    interactions ai.x -> bi.y through g, which serves each pair alone."""
    ports = ", ".join(f"p{2 * i}, q{2 * i}" for i in range(n))
    moves = "".join(f"  1 -> 1 on p{2 * i} > q{2 * i};\n" for i in range(n))
    ends = ", ".join(f"a{i}/p{2 * i}, b{i}/q{2 * i}" for i in range(n))
    init = "".join(f"  a{i}.x = {i};\n" for i in range(n))
    pairs = ", ".join(f"a{i}.x -> b{i}.y" for i in range(n))
    return (
        "automaton Sync { states 1; ports p1, p2; init 1; 1 -> 1 on p1 > p2; }\n"
        f"automaton Pairs {{\n  states 1;\n  ports {ports};\n  init 1;\n{moves}}}\n"
        f"connectors {{\n  h: Sync[a0/p1, z/p2];\n  g: Pairs[{ends}];\n}}\n"
        f"init {{\n{init}}}\n"
        f"main {{\n  a0.x -> z.y thru h;\n  {{{pairs}}} thru g;\n  0\n}}\n"
    )


@pytest.mark.parametrize("n", [10, 11, 13])
def test_every_pair_of_a_wide_set_can_pass_the_head(n: int) -> None:
    # a0 is blocked by the head; each other pair splits off alone and passes it
    prog = textio.parse_program(_wide_set_program(n))
    rs = ce.reductions(ce.initial_configuration(prog), prog.connectors)
    assert [r.subject for r in rs] == ["h"] + ["g"] * (n - 1)
    left_behind = {r.config.chor.cont.etas for r in rs[1:]}  # one pair fired each
    assert len(left_behind) == n - 1


def test_only_small_sets_keep_their_splits() -> None:
    # a set of n independent interactions has 2^n - 1 splits, so an
    # exhaustive search over a wide set would keep one such list per
    # residual set; only the head's single interaction is kept here
    prog = textio.parse_program(_wide_set_program(6))
    ce._small_set_splits.cache_clear()
    ce.reductions(ce.initial_configuration(prog), prog.connectors)
    assert ce._small_set_splits.cache_info().currsize == 1


def test_step_cost_does_not_grow_with_chain_length(monkeypatch) -> None:
    # the exposure walk stops two prefixes below the head of a ring chain
    short, long = _splits_per_step(monkeypatch, 50), _splits_per_step(monkeypatch, 400)
    assert max(short) == max(long) <= 3


DOUBLE_MERGE = """
automaton Sync { states 1; ports p1, p2; init 1; 1 -> 1 on p1 > p2; }
automaton Barrier3 {
  states 1;
  ports p1, p2, p3, p4, p5, p6;
  init 1;
  1 -> 1 on p1 > p2;
  1 -> 1 on p3 > p4;
  1 -> 1 on p5 > p6;
  1 -> 1 on p1 > p2 & p3 > p4;
  1 -> 1 on p1 > p2 & p5 > p6;
  1 -> 1 on p3 > p4 & p5 > p6;
  1 -> 1 on p1 > p2 & p3 > p4 & p5 > p6;
}
connectors {
  h: Sync[a/p1, x/p2];
  g: Barrier3[c/p1, d/p2, e/p3, f/p4, a/p5, x/p6];
}
init { a.v = 1; c.v = 2; e.v = 3; }
main {
  a.v -> x.w thru h;
  c.v -> d.w thru g;
  e.v -> f.w thru g;
  a.v -> x.u thru g;
  0
}
"""


def test_double_merge_reaches_the_head() -> None:
    # a.v -> x.u merges with e->f, and the union merges with c->d.  A subset
    # without a.v -> x.u fires, and a.v -> x.u stays behind, joined to what
    # is left, although the head blocks a and x.  Pruning by all enclosing
    # prefixes would lose these two reductions.
    prog = textio.parse_program(DOUBLE_MERGE)
    rs = ce.reductions(ce.initial_configuration(prog), prog.connectors)
    assert len(rs) == 6
    head = frozenset({ValCom("a", Var("v"), "x", "w")})
    late = ValCom("a", Var("v"), "x", "u")
    joined = set()
    for r in rs:
        c = r.config.chor
        if c.etas == head and c.cont.etas != frozenset({late}) and late in c.cont.etas:
            assert c.cont.cont == END
            joined.add(frozenset(c.cont.etas - {late}))
    assert joined == {
        frozenset({ValCom("c", Var("v"), "d", "w")}),
        frozenset({ValCom("e", Var("v"), "f", "w")}),
    }


def _programs():
    for name in list_fixtures(".cr"):
        yield load_program(name)
    for seed in range(300):
        yield gen_random_program(random.Random(seed))
    yield textio.parse_program(DOUBLE_MERGE)


def test_exposure_pruning_is_exact(monkeypatch) -> None:
    # the same reductions, in the same order, as a walk that never prunes:
    # with every process set unknown, no subterm is skipped
    def unpruned(cfg, g):
        with monkeypatch.context() as m:
            m.setattr(ce, "known_pn", lambda c, env, allow_unfold: None)
            return ce.reductions(cfg, g)

    for prog in _programs():
        start = ce.initial_configuration(prog)
        seen, frontier = {start}, [start]
        while frontier and len(seen) < 60:
            nxt = []
            for cfg in frontier:
                rs = ce.reductions(cfg, prog.connectors)
                assert rs == unpruned(cfg, prog.connectors)
                for r in rs:
                    if r.config not in seen:
                        seen.add(r.config)
                        nxt.append(r.config)
            frontier = nxt


def _counter_loops(monkeypatch, rounds: int):
    """The benchmark's counter loop, one per (fwd, back, sel) kind triple."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen

    for kinds in itertools.product(("Sync", "Buffer1"), repeat=3):
        yield textio.parse_program(gen.loop(random.Random(1), rounds, kinds).text)


def _walk(c, unfold: bool) -> list:
    """Each exposure of c as kind, subject, set or guard, processes, and the
    terms it rebuilds around both outcomes of a step."""
    out = []
    for ex in ce.exposures(c, {}, frozenset(), unfold):
        probe = (frozenset(), ex.what) if ex.kind == "com" else (TRUE, FALSE)
        out.append((ex.kind, ex.subject, ex.what, ex.procs, [ex.rebuild(x) for x in probe]))
    return out


def test_pruning_through_bound_calls_is_exact(monkeypatch) -> None:
    # the walk that bounds a subterm's processes through the calls its env
    # binds finds what the walk that gives up under any call finds, in the
    # same order and rebuilding the same terms, with and without unfolding
    def unbound(c, env, allow_unfold):
        return None if c.calls else c.procs

    for prog in [*_programs(), *_counter_loops(monkeypatch, 3)]:
        start = ce.initial_configuration(prog)
        seen, queue = {start}, deque([start])
        for _ in range(300):
            if not queue:
                break
            cfg = queue.popleft()
            for unfold in (True, False):
                walked = _walk(cfg.chor, unfold)
                with monkeypatch.context() as m:
                    m.setattr(ce, "known_pn", unbound)
                    assert walked == _walk(cfg.chor, unfold)
            for r in ce.reductions(cfg, prog.connectors):
                if r.config not in seen:
                    seen.add(r.config)
                    queue.append(r.config)


def test_loop_walk_enters_at_most_four_nodes(monkeypatch) -> None:
    # on `def X = B in ...` the walk stops below the second prefix, and under
    # the conditional below the prefix that carries the recursive call,
    # however many rounds the loop has left
    prog = next(_counter_loops(monkeypatch, 50))  # all Sync
    res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=1000)
    assert res.outcome is ce.Outcome.TERMINATED and len(res.trace) == 200
    entered = [0]
    walk = ce.exposures

    def counted(*args):
        entered[0] += 1
        return walk(*args)

    per_state = []
    monkeypatch.setattr(ce, "exposures", counted)
    for cfg in [ce.initial_configuration(prog), *(r.config for r in res.trace)]:
        entered[0] = 0
        ce.reductions(cfg, prog.connectors)
        per_state.append(entered[0])
    assert max(per_state) <= 4


WALK_PINS = json.loads((Path(__file__).parent / "walk_pins.json").read_text())


def _walk_traffic(prog, limit: int = 30) -> list:
    """For each of the first `limit` states in breadth-first order: how many
    com exposures the walk finds, and the reductions it leads to."""
    start = ce.initial_configuration(prog)
    seen, queue, out = {start}, deque([start]), []
    while queue and len(out) < limit:
        cfg = queue.popleft()
        rs = ce.reductions(cfg, prog.connectors)
        steps = [[r.kind, r.subject, r.branch, r.pre_state, r.post_state] for r in rs]
        out.append([len(ce.head_exposures(cfg.chor)), steps])
        for r in rs:
            if r.config not in seen:
                seen.add(r.config)
                queue.append(r.config)
    return out


def test_walk_traffic_is_pinned() -> None:
    # exposure counts and reduction order on every fixture, as recorded
    # before com and cond exposures shared one walk rule
    programs = {name: load_program(name) for name in list_fixtures(".cr")}
    programs["DOUBLE_MERGE"] = textio.parse_program(DOUBLE_MERGE)
    assert sorted(WALK_PINS) == sorted(programs)
    for name, prog in programs.items():
        assert _walk_traffic(prog) == WALK_PINS[name], name


PAIRS = RING_AUTOMATA + """
connectors {
  c1: Buffer1[a/p1, b/p2];
  c2: Buffer1[c/p1, d/p2];
  c3: Sync[e/p1, f/p2];
}

init { a.x = 1; c.x = 2; e.x = 3; }

main {
  a.x -> b.y thru c1;
  c.x -> d.y thru c2;
  e.x -> f.y thru c3;
  0
}
"""


def test_successors_share_what_their_step_leaves_alone() -> None:
    prog = textio.parse_program(PAIRS)
    cfg = ce.initial_configuration(prog)
    steps = ce.reductions(cfg, prog.connectors)
    assert {s.subject for s in steps} == {"c1", "c2", "c3"}
    for step in steps:
        succ = step.config
        for mine, theirs in zip(succ.astate, cfg.astate):
            assert (mine is theirs) is (mine[0] != step.subject)
        # a deposit into a buffer writes no store; a Sync hand-over does
        assert (succ.sigma is cfg.sigma) is (step.subject != "c3")
    assert ce.normalize(cfg.chor) is cfg.chor  # nothing rebuilt the start


def test_emptying_a_set_rebuilds_to_its_continuation() -> None:
    cont = Prefix(frozenset({ValCom("c", Var("x"), "d", "y")}), "c2", END)
    c = Prefix(frozenset({ValCom("a", Var("x"), "b", "y")}), "c1", cont)
    ex = ce.head_exposures(c)[0]
    assert ex.subject == "c1"
    assert ex.rebuild(frozenset()) is cont


def test_configuration_equality_is_type_strict() -> None:
    one = ce.Configuration.make(END, {("a", "x"): 1}, {})
    true = ce.Configuration.make(END, {("a", "x"): TRUE}, {})
    assert one != true
    assert len({one, true}) == 2
    cell1 = ce.Configuration.make(END, {}, {"g": ("1", {"m": 1})})
    cell_true = ce.Configuration.make(END, {}, {"g": ("1", {"m": TRUE})})
    assert cell1 != cell_true and len({cell1, cell_true}) == 2
    # equal states still merge, and the hash is the tuple hash of the fields
    again = ce.Configuration.make(END, {("a", "x"): 1}, {})
    assert again == one and len({one, again}) == 1
    assert hash(one) == hash((one.chor, one.sigma, one.astate))


def test_search_keeps_one_object_per_state() -> None:
    prog = textio.parse_program(PAIRS)
    res = harness.exhaustive_explore(ce.initial_configuration(prog), prog.connectors, 10)
    # each Buffer1 pair takes 2 steps and the Sync pair 1, from any state of
    # the other two pairs: most states are reached, and built, more than once
    assert len(res.nodes) == 3 * 3 * 2
    assert len(res.edges) == 2 * 2 * (3 * 2) + 1 * (3 * 3)
    held = {id(n) for n in res.nodes}
    for src, _label, dst in res.edges:
        assert id(src) in held and id(dst) in held
