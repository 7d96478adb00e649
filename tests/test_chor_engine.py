from __future__ import annotations

import random

import pytest

from choreo import chor_engine as ce
from choreo import harness, textio
from choreo.core import (
    BOT,
    Call,
    Constraint,
    Def,
    END,
    Flow,
    Label,
    Mem,
    Port,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    ValCom,
    Var,
)

from conftest import load_program, ring_chain


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
    m = ce.match_transition(etas, _phi((Port("a"), Port("c"))), sigma, {})
    assert m is not None
    out, sigma2, mu2 = m
    assert out == frozenset()
    assert sigma2[("c", "t")] == "foo"
    assert mu2 == {}


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
    etas = frozenset({RecvVal("c", "t", True)})
    phi = _phi((Mem("m"), Port("c")))
    # 1 == True in plain comparison, but the stored datum has the wrong type
    assert ce.match_transition(etas, phi, {}, {"m": 1}) is None
    assert ce.match_transition(etas, phi, {}, {"m": True}) is not None
    sel = frozenset({RecvSel("c", "go")})
    assert ce.match_transition(sel, phi, {}, {"m": "go"}) is None
    assert ce.match_transition(sel, phi, {}, {"m": Label("go")}) is not None


def test_match_failure_stages() -> None:
    etas = frozenset({RecvVal("c", "t", "foo")})
    phi = _phi((Mem("m"), Port("c")))
    assert ce.match_failure_stage(etas, phi, None, {"m": "bar"}) == "value"
    wrong_port = _phi((Mem("m"), Port("zz")))
    assert ce.match_failure_stage(etas, wrong_port, None, {"m": "foo"}) == "ports"


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
    m = ce.match_transition(etas, phi, sigma, {"c1": BOT, "c2": "dq"})
    assert m is not None
    out, sigma2, mu2 = m
    assert out == frozenset()
    assert sigma2[("p", "w")] == "dq"
    assert mu2 == {"c1": "dq", "c2": "dq"}
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
    m = ce.match_transition(frozenset(), chain, {}, {"c1": "a", "c2": "b", "c3": BOT})
    assert m[2] == {"c1": "a", "c2": "a", "c3": "b"}


def test_head_exposures_cross_independent_prefixes() -> None:
    prog = load_program("reorder.cr")
    exps = ce.head_exposures(prog.main)
    sets = {(e.connector, e.etas) for e in exps}
    # the t/v exchange on g2 is process-disjoint from everything on g1
    assert any(c == "g2" and any(x.receiver == "v" for x in s) for c, s in sets)


def test_head_exposures_merge_and_resplit_on_same_connector() -> None:
    prog = load_program("loop_barrier.cr")
    exps = ce.head_exposures(prog.main)
    # the r/s pair buried two prefixes deep pairs up with the first p/q set
    assert any(
        e.etas
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
    text, steps, store = ring_chain(500)
    prog = textio.parse_program(text)
    res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=2 * steps)
    assert res.outcome is ce.Outcome.TERMINATED
    assert len(res.trace) == steps
    assert res.final.sigma_map() == store


def _splits_per_step(monkeypatch, n: int) -> list[int]:
    calls = [0]
    per_step: list[int] = []
    splits, reductions = ce._valid_splits, ce.reductions

    def counted_splits(etas):
        calls[0] += 1
        return splits(etas)

    def counted_reductions(cfg, g):
        before = calls[0]
        out = reductions(cfg, g)
        per_step.append(calls[0] - before)
        return out

    text, steps, _ = ring_chain(n)
    prog = textio.parse_program(text)
    with monkeypatch.context() as m:
        m.setattr(ce, "_valid_splits", counted_splits)
        m.setattr(ce, "reductions", counted_reductions)
        res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=2 * steps)
    assert res.outcome is ce.Outcome.TERMINATED
    return per_step


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
    for name in harness.list_fixtures(".cr"):
        yield harness.load_program(name)
    for seed in range(300):
        yield harness.gen_random_program(random.Random(seed))
    yield textio.parse_program(DOUBLE_MERGE)


def test_exposure_pruning_is_exact(monkeypatch) -> None:
    # the same reductions, in the same order, as a walk that never prunes:
    # with every process set unknown, no subterm is skipped
    def unpruned(cfg, g):
        with monkeypatch.context() as m:
            m.setattr(ce, "known_pn", lambda c: None)
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
