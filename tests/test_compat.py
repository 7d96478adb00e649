from __future__ import annotations

import random
from pathlib import Path

import pytest

from choreo import chor_engine as ce
from choreo import compat, core, textio
from choreo.core import (
    Call,
    Def,
    END,
    InputError,
    Prefix,
    Sel,
    ValCom,
    Var,
)
from choreo.harness import exhaustive_explore, load_automaton

from conftest import (
    RING_AUTOMATA,
    fixture_text,
    load_expect,
    load_program,
    parallel_pairs,
    ring_chain,
)

VERDICTS = [
    ("booksale.cr", True, None, None),
    ("booksale_alternator.cr", True, None, None),
    ("booksale_resp1.cr", False, "ac2bs", "2"),
    ("booksale_resp2.cr", False, "ac2bs", "1"),
    ("booksale_resp3.cr", False, "ac2bs", "3"),
    ("loop_barrier.cr", False, None, None),
    ("loop_oneway.cr", False, None, None),
    ("once.cr", False, "g", "3"),
    ("reorder.cr", True, None, None),
    ("referee_multicast.cr", True, None, None),
    ("referee_sequence.cr", True, None, None),
]


@pytest.mark.parametrize("name,expect_yes,fail_conn,fail_state", VERDICTS)
def test_fixture_verdicts(name, expect_yes, fail_conn, fail_state) -> None:
    prog = load_program(name)
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert verdict.compatible == expect_yes
    if expect_yes:
        assert verdict.judgements_checked > 0
    else:
        assert verdict.reason
        assert verdict.judgement.path()
        if fail_conn is not None:
            astate = verdict.judgement.astate_map()
            assert astate[fail_conn][0] == fail_state


def test_no_verdict_lists_what_was_tried() -> None:
    prog = load_program("booksale_resp1.cr")
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert not verdict.compatible
    assert verdict.tried
    assert all(": no match" in line for line in verdict.tried)


def test_incompleteness_no_does_not_mean_deadlock() -> None:
    for name in ("loop_barrier.cr", "loop_oneway.cr"):
        prog = load_program(name)
        verdict = compat.check_compatibility(prog.main, prog.connectors)
        assert not verdict.compatible
        cfg = ce.initial_configuration(prog)
        ex = exhaustive_explore(cfg, prog.connectors, bound=30)
        assert not ex.stuck
        assert ex.truncated


def test_procedure_checked_once_at_first_call_state() -> None:
    # the loop returns to a different buffer state on re-entry, a No
    etas = frozenset({ValCom("p", Var("x"), "q", "y")})
    c = Def("X", Prefix(etas, "g", Call("X")), Call("X"))
    from choreo.core import instantiate

    g = {"g": instantiate(load_automaton("buffer1.ca"), {"p1": "p", "p2": "q"}, name="g")}
    verdict = compat.check_compatibility(c, g)
    assert not verdict.compatible
    assert "re-entered" in verdict.reason


# Each procedure is entered first with cell n holding true and re-entered
# with n holding 1.  In COPY the body's one transition copies m into n.  In
# PICK two transitions copy k or m into n, so the two orders of the body's
# interactions reach the same judgement but for the type of n in it.
COPY = """automaton Copy {
  states 1;
  ports p1, p2;
  mems m, n;
  init 1 { m = 1, n = true };
  1 -> 1 on p1 > p2 & m > n;
}

connectors {
  g: Copy[a/p1, b/p2];
}

init {
  a.x = 1;
}

main {
  def X = { a.x -> b.y thru g; X } in { X }
}
"""

PICK = """automaton Pick {
  states 1;
  ports p1, p2, p3, p4;
  mems m, k, n;
  init 1 { m = 1, k = true, n = true };
  1 -> 1 on p1 > p2 & m > n;
  1 -> 1 on p3 > p4 & k > n;
}

connectors {
  g: Pick[a/p1, b/p2, c/p3, d/p4];
}

init {
  a.x = 1;
  c.x = 1;
}

main {
  def X = { a.x -> b.y thru g; c.x -> d.y thru g; X } in { X }
}
"""


@pytest.mark.parametrize("text", [COPY, PICK], ids=["copy", "pick"])
def test_procedure_state_comparison_is_type_strict(text) -> None:
    # COPY needs a type-strict re-entry comparison.  PICK also needs a
    # type-strict memo key: without one, the order that ends with n = 1 is
    # taken for the one that ends with n = true and skipped.
    prog = textio.parse_program(text)
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert not verdict.compatible
    assert "re-entered" in verdict.reason
    n = verdict.judgement.astate_map()["g"][1]["n"]
    assert n == 1 and n is not True


def _unreduced(monkeypatch) -> None:
    """Switch the head rule off: with no head split served first, every
    prefix judgement gets every exposure's steps, as a check without the
    rule would."""
    monkeypatch.setattr(compat, "prefix_splits", lambda c: ())


@pytest.mark.parametrize("k", range(2, 9))
def test_independent_sync_interactions_take_k_plus_one_judgements(k) -> None:
    # no other prefix uses the head's connector, so only the head fires: the
    # judgements are the k + 1 suffixes of the chain of interactions
    prog = textio.parse_program(parallel_pairs(k, "Sync"))
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert verdict.judgements_checked == k + 1


@pytest.mark.parametrize("k", range(2, 9))
def test_independent_sync_interactions_take_two_to_the_k_judgements(k, monkeypatch) -> None:
    # without the head rule, the memo alone keeps one judgement per subset of
    # interactions done, whatever the order
    _unreduced(monkeypatch)
    prog = textio.parse_program(parallel_pairs(k, "Sync"))
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert verdict.judgements_checked == 2**k


@pytest.mark.parametrize("k", range(2, 7))
def test_buffer1_pair_judgement_counts_are_pinned(k) -> None:
    # only the head pair fires, while no other prefix uses its connector:
    # its send, then its receive, so each pair adds two judgements
    prog = textio.parse_program(parallel_pairs(k, "Buffer1"))
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert verdict.judgements_checked == 2 * k + 1


@pytest.mark.parametrize(
    "kind,states", [("Sync", 3), ("Buffer1", 5)], ids=["sync", "buffer1"]
)
@pytest.mark.parametrize("k", range(2, 6))
def test_pairs_that_reuse_their_connector_meet_in_the_memo(k, kind, states) -> None:
    # every pair sends twice through its own connector, all first sends
    # before all second ones, so the head's connector is used again below
    # until every first send is done, and the head rule drops no judgement;
    # the memo keeps one per combination of pair states: 0, 1 or 2 data
    # delivered through Sync, and with Buffer1 also a first or second datum
    # in the cell
    prog = textio.parse_program(parallel_pairs(k, kind, rounds=2))
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert verdict.judgements_checked == states**k


# Serves the pair on p1, p2 or the pair on p3, p4 first; the second pair
# after the first, but never the first after the second.
FORK = """automaton Fork {
  states 1, 2, 3, 4;
  ports p1, p2, p3, p4;
  init 1;
  1 -> 2 on p1 > p2;
  1 -> 3 on p3 > p4;
  2 -> 4 on p3 > p4;
}
"""


def _pair_program(rng: random.Random) -> str:
    """2-6 processes, 2-5 Sync or Buffer1 connectors, each bound to a random
    sender and receiver, 15% of them with the ports reversed, and 2-7
    interactions through them, so connectors and processes are reused.  With
    four processes or more, one connector in five is a Fork serving two
    disjoint pairs instead, so that a later prefix on the head's connector
    can merge with the head."""
    procs = [f"p{i}" for i in range(rng.randint(2, 6))]
    bindings, pairs = [], []
    for i in range(rng.randint(2, 5)):
        if len(procs) >= 4 and rng.random() < 0.2:
            s, r, s2, r2 = rng.sample(procs, 4)
            bindings.append(f"  c{i}: Fork[{s}/p1, {r}/p2, {s2}/p3, {r2}/p4];\n")
            pairs += [(f"c{i}", s, r), (f"c{i}", s2, r2)]
            continue
        s, r = rng.sample(procs, 2)
        kind = rng.choice(["Sync", "Buffer1"])
        p1, p2 = (r, s) if rng.random() < 0.15 else (s, r)
        bindings.append(f"  c{i}: {kind}[{p1}/p1, {p2}/p2];\n")
        pairs.append((f"c{i}", s, r))
    lines = []
    for n in range(rng.randint(2, 7)):
        c, s, r = rng.choice(pairs)
        lines.append(f"  {s}.x -> {r}.y{n} thru {c};\n")
    init = "".join(f"  {p}.x = {i};\n" for i, p in enumerate(procs))
    return (
        f"{RING_AUTOMATA}\n{FORK}\nconnectors {{\n{''.join(bindings)}}}\n\n"
        f"init {{\n{init}}}\n\nmain {{\n{''.join(lines)}  0\n}}\n"
    )


def test_head_rule_waits_while_its_connector_is_used_below() -> None:
    # c's pair merges with the head on g and may go first, to state 3, where
    # a's pair is never served: firing only the head would say compatible
    text = (
        f"{FORK}\nconnectors {{\n  g: Fork[a/p1, b/p2, c/p3, d/p4];\n}}\n\n"
        "init {\n  a.x = 1;\n  c.x = 2;\n}\n\n"
        "main {\n  a.x -> b.y thru g;\n  c.x -> d.y thru g;\n  0\n}\n"
    )
    prog = textio.parse_program(text)
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert not verdict.compatible
    assert verdict.judgement.astate_map()["g"][0] == "3"
    assert exhaustive_explore(ce.initial_configuration(prog), prog.connectors, bound=4).stuck


def _report(verdict) -> "int | tuple":
    if verdict.compatible:
        return verdict.judgements_checked
    j = verdict.judgement
    return (verdict.reason, verdict.tried, j.path(), j.chor, j.astate)


def test_head_rule_keeps_every_report_of_the_unreduced_check(monkeypatch) -> None:
    # the head rule may only drop judgements: every No reports the same
    # failing judgement, path, connector state and attempts, and a Yes takes
    # no more judgements; and no program with a Yes can get stuck (a12)
    reduced_yes = unreduced_yes = noes = 0
    for seed in range(500):
        prog = textio.parse_program(_pair_program(random.Random(seed)))
        reduced = compat.check_compatibility(prog.main, prog.connectors)
        with monkeypatch.context() as m:
            _unreduced(m)
            unreduced = compat.check_compatibility(prog.main, prog.connectors)
        assert reduced.compatible == unreduced.compatible, seed
        if not reduced.compatible:
            noes += 1
            assert _report(reduced) == _report(unreduced), seed
            continue
        assert reduced.judgements_checked <= unreduced.judgements_checked, seed
        reduced_yes += reduced.judgements_checked
        unreduced_yes += unreduced.judgements_checked
        ex = exhaustive_explore(ce.initial_configuration(prog), prog.connectors, bound=16)
        assert not ex.stuck and not ex.truncated, seed
    # both kinds of verdict are met, and the rule does drop judgements
    assert 0 < noes < 500
    assert reduced_yes < unreduced_yes


# a's two data cross on the way: the first goes to c, the second to b
CROSS = """automaton Cross {
  states 1, 2, 3, 4;
  ports p1, p2, p3;
  mems m1, m2;
  init 1;
  1 -> 2 on p1 > m1;
  2 -> 3 on p1 > m2;
  3 -> 4 on m1 > p3;
  4 -> 1 on m2 > p2;
}

connectors {
  g: Cross[a/p1, b/p2, c/p3];
}

init {
  a.x = 1;
  a.z = 2;
}

main {
  a.x -> b.y thru g; a.z -> c.w thru g; 0
}
"""


def test_tokens_of_one_sender_stay_apart_along_a_path() -> None:
    # named by sender alone, a's two tokens would be equal, and the check
    # would wrongly say compatible (5 judgements)
    prog = textio.parse_program(CROSS)
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert not verdict.compatible
    assert verdict.judgement.astate_map()["g"] == (
        "3",
        {"m1": core.FreshToken("a", 1), "m2": core.FreshToken("a", 2)},
    )
    res = ce.run(ce.initial_configuration(prog), prog.connectors, max_steps=10)
    assert res.outcome is ce.Outcome.STUCK
    assert ce.report_stuck(res.final, prog.connectors).classification == "value-mismatch"


def test_benchmark_judgement_counter_equals_judgements_checked(monkeypatch) -> None:
    # perfbench's tracer counts judgements as Judgement objects are built
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracer
    import workloads

    check = next(op for op in workloads.parallel(0, False).ops if op.metric == "check_s")
    programs = [textio.parse_program(i.src.text) for i in check.items if i.src.compatible]
    programs += [load_program(name) for name, yes, _c, _s in VERDICTS if yes]
    assert len(programs) == 7
    for prog in programs:
        t = tracer.Tracer()
        t.install()
        try:
            verdict = compat.check_compatibility(prog.main, prog.connectors)
        finally:
            t.uninstall()
        assert verdict.compatible
        assert t.calls["compat.check"] == 1
        assert t.calls["compat.judgements"] == verdict.judgements_checked


def test_modular_restriction_ignores_unrelated_connectors() -> None:
    from choreo.core import instantiate

    etas = frozenset({ValCom("p", Var("x"), "q", "y")})
    other = frozenset({ValCom("r", Var("z"), "s", "w")})
    # one buffered exchange on h before the loop shifts h's state; the loop
    # itself only ever touches g
    c = Prefix(other, "h", Def("X", Prefix(etas, "g", Call("X")), Call("X")))
    g = {
        "g": instantiate(load_automaton("sync.ca"), {"p1": "p", "p2": "q"}, name="g"),
        "h": instantiate(load_automaton("buffer1.ca"), {"p1": "r", "p2": "s"}, name="h"),
    }
    assert compat.check_compatibility(c, g).compatible
    # the loop X only ever touches g, but the first call enters it with h
    # empty and the call after the buffered exchange with h full: compared
    # at every connector, that was a different state, and the check said No
    prog = textio.parse_program(
        fixture_text("sync.ca")
        + fixture_text("buffer1.ca")
        + """connectors { g: Sync[a/p1, b/p2]; h: Buffer1[c/p1, d/p2]; }
init { a.x = 1; c.z = 1; }
main {
  def X = { a.x -> b.y thru g; X }
  in { if c.z = 1 then { c.z -> d.w thru h; X } else { X } }
}"""
    )
    assert compat.check_compatibility(prog.main, prog.connectors).compatible
    ex = exhaustive_explore(ce.initial_configuration(prog), prog.connectors, bound=40)
    assert len(ex.nodes) == 8 and not ex.stuck and not ex.truncated


def test_unused_procedure_is_an_input_error() -> None:
    tail = Prefix(frozenset({Sel("a", "b", "go")}), "g", END)
    unused = Def("X", END, tail)
    with pytest.raises(InputError):
        compat.check_compatibility(unused, {})
    self_only = Def("X", Call("X"), tail)
    with pytest.raises(InputError):
        compat.check_compatibility(self_only, {})


def test_missing_connector_is_an_input_error() -> None:
    c = Prefix(frozenset({Sel("a", "b", "go")}), "nosuch", END)
    with pytest.raises(InputError):
        compat.check_compatibility(c, {})


def test_termination_metric_assert_is_live(monkeypatch) -> None:
    # with a constant metric nothing can strictly decrease, so the per-step
    # assertion in the worklist must fire
    prog = load_program("booksale.cr")
    monkeypatch.setattr(compat, "size", lambda c: 10**6)
    with pytest.raises(AssertionError):
        compat.check_compatibility(prog.main, prog.connectors)


def _size_visits_per_call(monkeypatch, n: int) -> list[int]:
    visits = [0]
    per_call: list[int] = []
    build, size = core.Prefix._build, compat.size

    def counted_build(*args):
        visits[0] += 1
        return build(*args)

    def counted_size(c):
        before = visits[0]
        out = size(c)
        per_call.append(visits[0] - before)
        return out

    with monkeypatch.context() as m:
        m.setattr(core.Prefix, "_build", counted_build)
        prog = textio.parse_program(ring_chain(n)[0])
        assert visits[0] == n  # each prefix is measured once, when it is built
        core.size(prog.main)
        assert visits[0] == n
        m.setattr(compat, "size", counted_size)
        verdict = compat.check_compatibility(prog.main, prog.connectors)
    assert verdict.compatible
    assert len(per_call) > verdict.judgements_checked > n
    return per_call


def test_size_visits_per_judgement_do_not_grow_with_the_chain(monkeypatch) -> None:
    # a judgement asks for the size of its term and of each successor; every
    # node works its size out when it is built, so a call visits no prefix at
    # all, where the uncached metric walked the whole remaining term
    short = _size_visits_per_call(monkeypatch, 50)
    long = _size_visits_per_call(monkeypatch, 400)
    assert max(short) == max(long) == 0


CONFLUENCE = [
    ("sync", True),
    ("buffer1", True),
    ("buffer2", False),
    ("spread2", True),
    ("spread3", True),
    ("rendezvous", True),
    ("alternator", True),
    ("indep2", True),
    ("relay2", True),
    ("chain4", True),
    ("twosinks", False),
]


@pytest.mark.parametrize("name,expected", CONFLUENCE)
def test_confluence_verdicts(name, expected) -> None:
    v = compat.check_confluence(load_automaton(f"{name}.ca"))
    assert v.confluent == expected
    assert bool(v) == expected
    if not expected:
        t1, t2 = v.witness
        assert t1.src == t2.src


def test_buffer2_confluence_witness_names_the_fork() -> None:
    v = compat.check_confluence(load_automaton("buffer2.ca"))
    t1, t2 = v.witness
    assert {t1.dst, t2.dst} == {"1", "3"}


def test_compatibility_preserved_along_reductions() -> None:
    for name in ("booksale.cr", "reorder.cr", "referee_multicast.cr"):
        prog = load_program(name)
        assert all(compat.check_confluence(a).confluent for a in prog.connectors.values())
        cfg = ce.initial_configuration(prog)
        ex = exhaustive_explore(cfg, prog.connectors, bound=30)
        assert not ex.truncated
        for node in ex.nodes:
            v = compat.check_compatibility(
                node.chor, prog.connectors, a0=node.astate_map()
            )
            assert v.compatible, node
