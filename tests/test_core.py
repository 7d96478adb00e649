from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import choreo

from choreo.core import (
    BOT,
    Bool,
    Call,
    Cond,
    Const,
    Constraint,
    ConstraintAutomaton,
    Def,
    END,
    End,
    FALSE,
    Flow,
    InputError,
    Label,
    Mem,
    Port,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    TRUE,
    Transition,
    ValCom,
    Var,
    desugar_multicast,
    instantiate,
    known_pn,
    sorted_etas,
    validate_automaton,
    validate_interaction_set,
)
from choreo.chor_engine import initial_configuration
from choreo.epp import BEND, PortName, Send, project_behaviour
from choreo.harness import (
    exhaustive_explore,
    gen_random_program,
    list_fixtures,
    load_automaton,
    load_program,
)


def test_label_never_equals_string() -> None:
    assert Label("ok") != "ok"
    assert Label("ok") == Label("ok")


def test_end_is_a_singleton() -> None:
    assert End() is END
    assert End() == End()


def test_booleans_are_not_numbers() -> None:
    assert Bool(1) is TRUE and Bool(0) is FALSE
    assert TRUE != 1 and FALSE != 0 and TRUE != FALSE
    assert not isinstance(TRUE, int)
    assert bool(TRUE) and not FALSE
    assert (repr(TRUE), repr(FALSE)) == ("true", "false")
    assert len({1, 0, TRUE, FALSE}) == 4


def test_terms_built_on_one_and_true_differ() -> None:
    one, true = Const(1), Const(TRUE)
    assert one != true
    assert RecvVal("b", "x", 1) != RecvVal("b", "x", TRUE)
    assert ValCom("a", one, "b", "x") != ValCom("a", true, "b", "x")
    recv1 = frozenset({RecvVal("b", "x", 1)})
    recv_true = frozenset({RecvVal("b", "x", TRUE)})
    assert recv1 != recv_true
    assert Prefix(recv1, "g", END) != Prefix(recv_true, "g", END)
    assert Prefix(recv1, "g", END) is not Prefix(recv_true, "g", END)
    assert Cond("a", one, END, END) != Cond("a", true, END, END)
    assert Cond("a", one, END, END) is not Cond("a", true, END, END)
    port = PortName("o", "a", "g")
    assert Send(port, one, BEND) != Send(port, true, BEND)
    assert Send(port, one, BEND) is not Send(port, true, BEND)


def test_equal_terms_are_one_object() -> None:
    p1, p2 = load_program("booksale.cr"), load_program("booksale.cr")
    assert p1.main is p2.main
    # the two orders of two independent interactions are different terms,
    # projected node by node, but each process's projection is one object
    ab = frozenset({ValCom("a", Var("x"), "b", "y")})
    cd = frozenset({ValCom("c", Var("z"), "d", "w")})
    t1 = Prefix(ab, "g", Prefix(cd, "h", END))
    t2 = Prefix(cd, "h", Prefix(ab, "g", END))
    assert t1 is not t2
    for r in "abcd":
        assert project_behaviour(t1, r) is project_behaviour(t2, r)


def test_dropping_a_long_term_empties_its_table() -> None:
    # the tables hold the nodes weakly, and freeing a long term does not
    # recurse once per node
    etas = frozenset({ValCom("a", Var("x"), "b", "y")})
    port = PortName("o", "a", "g")
    n = 200_000
    before = len(Prefix._table), len(Send._table)
    c, b = END, BEND
    for _ in range(n):
        c, b = Prefix(etas, "g", c), Send(port, Var("x"), b)
    assert (len(Prefix._table), len(Send._table)) == (before[0] + n, before[1] + n)
    del c, b
    assert (len(Prefix._table), len(Send._table)) == before


def test_python_bools_are_not_values() -> None:
    with pytest.raises(InputError):
        Const(True)
    prog = load_program("booksale.cr")
    initial_configuration(prog)
    with pytest.raises(InputError):
        initial_configuration(replace(prog, init_sigma={**prog.init_sigma, ("a", "happy"): True}))
    a2c = replace(prog.connectors["a2c"], init_mem=(("m", False),))
    with pytest.raises(InputError):
        initial_configuration(replace(prog, connectors={**prog.connectors, "a2c": a2c}))


_HASH_A_BUFFERED_STATE = """
from choreo import textio
from choreo.chor_engine import initial_configuration
from choreo.harness import fixture_path
text = fixture_path("buffer1.ca").read_text() + (
    "connectors { g: Buffer1[a/p1, b/p2]; } init { a.x = true; } main { a.x -> b.y thru g; 0 }"
)
print(hash(initial_configuration(textio.parse_program(text))))
"""


def test_empty_cells_hash_alike_in_every_process() -> None:
    # a state holding an empty cell and a boolean must hash the same in two
    # interpreters under one PYTHONHASHSEED, or set orders differ between runs
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(Path(choreo.__file__).parent.parent),
    }
    hashes = {
        subprocess.run(
            [sys.executable, "-c", _HASH_A_BUFFERED_STATE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    }
    assert len(hashes) == 1 and hashes.pop().strip()


def test_self_communication_rejected() -> None:
    with pytest.raises(Exception):
        ValCom("a", Var("x"), "a", "y")
    with pytest.raises(Exception):
        Sel("a", "a", "go")


def test_interaction_set_distinct_receivers() -> None:
    etas = [ValCom("a", Var("x"), "c", "t"), Sel("b", "c", "go")]
    problems = validate_interaction_set(etas)
    assert any("receiver c" in p for p in problems)


def test_interaction_set_consistent_sends() -> None:
    etas = [ValCom("a", Var("x"), "b", "t"), ValCom("a", Var("y"), "c", "u")]
    problems = validate_interaction_set(etas)
    assert any("sender a" in p for p in problems)
    same = [ValCom("a", Var("x"), "b", "t"), ValCom("a", Var("x"), "c", "u")]
    assert validate_interaction_set(same) == []


def test_runtime_terms_count_as_receivers() -> None:
    etas = [RecvVal("c", "t", "v"), Sel("a", "c", "go")]
    assert validate_interaction_set(etas)
    ok = [RecvVal("c", "t", "v"), RecvSel("b", "go")]
    assert validate_interaction_set(ok) == []


def test_desugar_multicast_values() -> None:
    etas = desugar_multicast("a", Var("x"), [("b", "m"), ("c", "n")])
    assert etas == frozenset(
        {ValCom("a", Var("x"), "b", "m"), ValCom("a", Var("x"), "c", "n")}
    )


def test_desugar_multicast_labels() -> None:
    etas = desugar_multicast("a", "buy", ["b", "c"])
    assert etas == frozenset({Sel("a", "b", "buy"), Sel("a", "c", "buy")})


def test_desugar_multicast_rejects_bad_shapes() -> None:
    with pytest.raises(InputError):
        desugar_multicast("a", "buy", [])
    with pytest.raises(InputError):
        desugar_multicast("a", "buy", ["a"])
    with pytest.raises(InputError):
        desugar_multicast("a", "buy", ["b", "b"])
    with pytest.raises(InputError):
        desugar_multicast("a", Var("x"), ["b"])


def test_pn_and_connectors_walk_the_whole_tree() -> None:
    c = Def(
        "X",
        Prefix(frozenset({Sel("a", "b", "go")}), "g1", Call("X")),
        Cond("d", Const(TRUE), Prefix(frozenset({Sel("a", "c", "go")}), "g2", END), END),
    )
    assert c.procs == frozenset({"a", "b", "c", "d"})
    assert c.conns == frozenset({"g1", "g2"})


def test_check_closed_flags_free_calls() -> None:
    assert Call("X").calls == frozenset({"X"})
    assert Def("X", Call("X"), Call("X")).calls == frozenset()


def _reference_facts(c) -> tuple:
    """procs, calls, conns and size of c, by a plain recursive walk."""
    if isinstance(c, End):
        return frozenset(), frozenset(), frozenset(), 1
    if isinstance(c, Call):
        return frozenset(), frozenset({c.name}), frozenset(), 1
    if isinstance(c, Prefix):
        procs, calls, conns, size = _reference_facts(c.cont)
        for eta in c.etas:
            procs |= {eta.receiver}
            if isinstance(eta, (ValCom, Sel)):
                procs |= {eta.sender}
            size += 2 if isinstance(eta, (ValCom, Sel)) else 1
        return procs, calls, conns | {c.connector}, size
    if isinstance(c, Cond):
        p1, k1, n1, s1 = _reference_facts(c.then_branch)
        p2, k2, n2, s2 = _reference_facts(c.else_branch)
        return p1 | p2 | {c.process}, k1 | k2, n1 | n2, 1 + s1 + s2
    p1, k1, n1, s1 = _reference_facts(c.body)
    p2, k2, n2, s2 = _reference_facts(c.cont)
    return p1 | p2, (k1 | k2) - {c.name}, n1 | n2, 1 + s1 + s2


def _subterms(c):
    yield c
    if isinstance(c, Prefix):
        yield from _subterms(c.cont)
    elif isinstance(c, Cond):
        yield from _subterms(c.then_branch)
        yield from _subterms(c.else_branch)
    elif isinstance(c, Def):
        yield from _subterms(c.body)
        yield from _subterms(c.cont)


def test_node_facts_agree_with_a_reference_walk() -> None:
    programs = [load_program(name) for name in list_fixtures(".cr")]
    programs += [gen_random_program(random.Random(seed)) for seed in range(300)]
    for prog in programs:
        reached = exhaustive_explore(initial_configuration(prog), prog.connectors, 8).nodes
        for chor in {prog.main} | {cfg.chor for cfg in reached}:
            for c in _subterms(chor):
                assert (c.procs, c.calls, c.conns, c.size) == _reference_facts(c)


def test_known_pn_knows_a_closed_def() -> None:
    body = Prefix(frozenset({Sel("a", "b", "go")}), "g", Call("X"))
    assert known_pn(Def("X", body, Call("X"))) == frozenset({"a", "b"})
    assert known_pn(body) is None


def test_sorted_etas_is_deterministic() -> None:
    etas = {Sel("b", "c", "go"), ValCom("a", Var("x"), "d", "t"), RecvSel("e", "go")}
    assert sorted_etas(etas) == sorted_etas(frozenset(etas))


def test_validate_automaton_accepts_the_builders() -> None:
    assert validate_automaton(load_automaton("buffer1.ca")) == []
    assert validate_automaton(load_automaton("rendezvous.ca")) == []


def _tiny(transitions) -> ConstraintAutomaton:
    return ConstraintAutomaton.make(
        "T", ["1", "2"], ["p1", "p2"], ["m"], transitions, "1"
    )


def test_validate_automaton_single_role_ports() -> None:
    t1 = Transition("1", Constraint.of(Flow(Port("p1"), Port("p2"))), "2")
    t2 = Transition("2", Constraint.of(Flow(Port("p2"), Port("p1"))), "1")
    problems = validate_automaton(_tiny([t1, t2]))
    assert any("both as a source and as a target" in p for p in problems)


def test_validate_automaton_determinism_on_port_sets() -> None:
    t1 = Transition("1", Constraint.of(Flow(Port("p1"), Port("p2"))), "2")
    t2 = Transition("1", Constraint.of(Flow(Port("p1"), Port("p2"))), "1")
    problems = validate_automaton(_tiny([t1, t2]))
    assert any("same port set" in p for p in problems)


def test_validate_automaton_same_ports_different_cells_still_clash() -> None:
    t1 = Transition("1", Constraint.of(Flow(Port("p1"), Mem("m"))), "2")
    t2 = Transition("1", Constraint.of(Flow(Port("p1"), Port("p2"))), "1")
    problems = validate_automaton(_tiny([t1, t2]))
    assert problems == []


def test_validate_automaton_distinct_targets() -> None:
    t = Transition(
        "1",
        Constraint.of(Flow(Port("p1"), Mem("m")), Flow(Port("p2"), Mem("m"))),
        "2",
    )
    problems = validate_automaton(_tiny([t]))
    assert any("written twice" in p for p in problems)
    # the same name as a port target and as a cell target is two targets
    t2 = Transition(
        "1",
        Constraint.of(Flow(Port("p1"), Port("p2")), Flow(Mem("m"), Mem("m"))),
        "2",
    )
    assert validate_automaton(_tiny([t2])) == []


def test_validate_automaton_referential_closure() -> None:
    t = Transition("1", Constraint.of(Flow(Port("zz"), Mem("qq"))), "9")
    problems = validate_automaton(_tiny([t]))
    assert any("unknown port zz" in p for p in problems)
    assert any("unknown cell qq" in p for p in problems)
    assert any("unknown target state 9" in p for p in problems)


def test_validate_automaton_empty_constraint() -> None:
    t = Transition("1", Constraint(frozenset()), "2")
    problems = validate_automaton(_tiny([t]))
    assert any("empty flow constraint" in p for p in problems)


def test_instantiate_renames_ports_everywhere() -> None:
    b = load_automaton("buffer1.ca")
    inst = instantiate(b, {"p1": "a", "p2": "c"}, name="a2c")
    assert inst.ports == ("a", "c")
    srcs = {
        f.src.name
        for t in inst.transitions
        for f in t.phi.flows
        if isinstance(f.src, Port)
    }
    assert srcs == {"a"}
    assert inst.name == "a2c"
    assert inst.mems == b.mems


def test_instantiate_requires_a_bijection() -> None:
    b = load_automaton("buffer1.ca")
    with pytest.raises(InputError):
        instantiate(b, {"p1": "a"})
    with pytest.raises(InputError):
        instantiate(b, {"p1": "a", "p2": "a"})
    with pytest.raises(InputError):
        instantiate(b, {"p1": "a", "p2": "c", "p3": "d"})


def test_init_mem_defaults_to_bottom() -> None:
    a = _tiny([])
    assert a.init_mem_map() == {"m": BOT}
