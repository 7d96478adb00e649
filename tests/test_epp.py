from __future__ import annotations

import pytest

from choreo import chor_engine as ce
from choreo import epp
from choreo.core import (
    Cond,
    Const,
    END,
    InputError,
    Prefix,
    Sel,
    TRUE,
    ValCom,
    Var,
)
from choreo.epp import (
    BCond,
    BEnd,
    Branch,
    MergeError,
    PortName,
    Recv,
    Send,
    Unprojectable,
    merge,
    project_behaviour,
    project_connectors,
)
from conftest import list_fixtures, load_automaton, load_program
from support import gen_random_program, projectable

import random


def _b_end() -> BEnd:
    return BEnd()


def test_merge_identical_behaviours() -> None:
    b = Send(PortName("o", "a", "g"), Var("x"), _b_end())
    assert merge(b, b) == b


def test_merge_unions_branch_labels() -> None:
    port = PortName("i", "b", "g")
    b1 = Branch.make(port, {"yes": _b_end()})
    b2 = Branch.make(port, {"no": _b_end()})
    merged = merge(b1, b2)
    assert isinstance(merged, Branch)
    assert set(merged.case_map()) == {"yes", "no"}
    # shared labels merge recursively
    b3 = Branch.make(port, {"yes": _b_end(), "extra": _b_end()})
    again = merge(merged, b3)
    assert set(again.case_map()) == {"yes", "no", "extra"}


def test_merge_rejects_different_shapes() -> None:
    s = Send(PortName("o", "a", "g"), Var("x"), _b_end())
    r = Recv(PortName("i", "a", "g"), "x", _b_end())
    with pytest.raises(MergeError):
        merge(s, r)
    with pytest.raises(MergeError):
        merge(s, Send(PortName("o", "a", "g"), Var("y"), _b_end()))


def _long_behaviour(end) -> "epp.Behaviour":
    b = end
    for i in range(2000):
        if i % 2:
            b = Send(PortName("o", "b", "h"), Var("x"), b)
        else:
            b = Recv(PortName("i", "b", "h"), "x", b)
    return b


def test_merge_and_equality_follow_long_action_spines() -> None:
    # 2,000 shared actions, then branches to union: deeper than the
    # interpreter's recursion limit
    port = PortName("i", "b", "g")
    yes, no = Branch.make(port, {"yes": _b_end()}), Branch.make(port, {"no": _b_end()})
    both = Branch.make(port, {"yes": _b_end(), "no": _b_end()})
    assert merge(_long_behaviour(yes), _long_behaviour(no)) == _long_behaviour(both)
    assert _long_behaviour(yes) != _long_behaviour(no)
    with pytest.raises(MergeError) as exc:
        merge(_long_behaviour(yes), _long_behaviour(Recv(port, "x", _b_end())))
    assert len(exc.value.path) == 2000 and exc.value.path[-2:] == ("send", "recv")


def test_merge_properties_on_generated_branches() -> None:
    rng = random.Random(7)
    port = PortName("i", "b", "g")
    labels = ["l1", "l2", "l3", "l4"]

    def gen() -> Branch:
        picks = rng.sample(labels, rng.randint(1, 3))
        return Branch.make(port, {l: _b_end() for l in picks})

    for _ in range(40):
        x, y, z = gen(), gen(), gen()
        assert merge(x, x) == x
        assert merge(x, y) == merge(y, x)
        assert merge(merge(x, y), z) == merge(x, merge(y, z))


def test_booksale_projection_per_process() -> None:
    prog = load_program("booksale.cr")
    main = ce.normalize(prog.main)

    a = project_behaviour(main, "a")
    assert isinstance(a, Send) and a.port == PortName("o", "a", "a2c")
    assert isinstance(a.cont, Recv) and a.cont.port == PortName("i", "a", "c2a")
    assert isinstance(a.cont.cont, BCond)

    b = project_behaviour(main, "b")
    assert isinstance(b, Branch)
    assert set(b.case_map()) == {"buy", "quit"}

    s = project_behaviour(main, "s")
    assert isinstance(s, Branch)
    buy = s.case_map()["buy"]
    assert isinstance(buy, Recv) and buy.var == "book"

    c = project_behaviour(main, "c")
    assert isinstance(c, Recv)


def test_nonparticipants_project_to_end() -> None:
    prog = load_program("booksale.cr")
    assert project_behaviour(ce.normalize(prog.main), "zz") == _b_end()


def test_unprojectable_conditional() -> None:
    # b only hears about one branch, so its two projections cannot merge
    c = Cond(
        "a",
        Var("x"),
        Prefix(frozenset({ValCom("a", Var("x"), "b", "t")}), "g", END),
        END,
    )
    with pytest.raises(Unprojectable) as err:
        project_behaviour(c, "b")
    assert err.value.process == "b"
    assert not projectable(c)


def test_merge_failure_names_what_is_sent_and_what_is_received() -> None:
    # the branches send q's 1 and q's true through c2, and r receives into
    # x or into y: a merge error must show where the two sides differ
    def branch(expr, var):
        return Prefix(frozenset({ValCom("q", expr, "r", var)}), "c2", END)

    sends = Cond("p", Var("c"), branch(Const(1), "x"), branch(Const(TRUE), "x"))
    with pytest.raises(Unprojectable) as err:
        project_behaviour(sends, "q")
    assert str(err.value) == (
        "no projection for q: merge undefined at top: send o_c2 <1> vs send o_c2 <true>"
    )
    receives = Cond("p", Var("c"), branch(Var("v"), "x"), branch(Var("v"), "y"))
    with pytest.raises(Unprojectable) as err:
        project_behaviour(receives, "r")
    assert str(err.value) == (
        "no projection for r: merge undefined at top: recv i_c2 x vs recv i_c2 y"
    )


def test_selection_makes_the_conditional_projectable() -> None:
    then = Prefix(frozenset({Sel("a", "b", "yes")}), "g", END)
    els = Prefix(frozenset({Sel("a", "b", "no")}), "g", END)
    c = Cond("a", Var("x"), then, els)
    b = project_behaviour(c, "b")
    assert isinstance(b, Branch)
    assert set(b.case_map()) == {"yes", "no"}


def test_project_network_slices_the_store() -> None:
    prog = load_program("booksale.cr")
    net = epp.project_network(ce.normalize(prog.main), prog.init_sigma)
    stores = {p: store for p, (store, _) in net.proc_map().items()}
    assert stores["a"] == {"title": "foo", "happy": TRUE, "money": "$10"}
    assert stores["c"] == {"price": "$10", "book": "foo.pdf"}
    assert stores["b"] == {}


def test_project_connectors_renames_and_directs() -> None:
    from choreo.core import instantiate

    g = {"a2c": instantiate(load_automaton("buffer1.ca"), {"p1": "a", "p2": "c"}, name="a2c")}
    out = project_connectors(g)
    assert out["a2c"].ports == ("o_a_a2c", "i_c_a2c")
    for t in out["a2c"].transitions:
        for f in t.phi.flows:
            for e in (f.src, f.dst):
                if hasattr(e, "name") and "_" in e.name:
                    PortName.parse(e.name)


def test_project_connectors_rejects_underscores() -> None:
    from choreo.core import instantiate

    inst = instantiate(load_automaton("buffer1.ca"), {"p1": "a", "p2": "c"}, name="a2c")
    with pytest.raises(InputError):
        project_connectors({"a_2c": inst})
    bad = instantiate(load_automaton("buffer1.ca"), {"p1": "a_x", "p2": "c"}, name="g")
    with pytest.raises(InputError):
        project_connectors({"g": bad})


def test_generated_programs_are_projectable() -> None:
    for i in range(40):
        prog = gen_random_program(random.Random(5000 + i))
        assert projectable(ce.normalize(prog.main))


def _projection_or_failure(cfg):
    try:
        return epp.project_network(ce.normalize(cfg.chor), cfg.sigma_map())
    except Unprojectable as exc:
        return str(exc)


def test_memoised_projection_is_exact(monkeypatch) -> None:
    # the same network, stores and value types included, as a projection that
    # neither reads nor fills the `_proj` maps, on up to 60 breadth-first
    # states of each program; the maps persist from state to state
    programs = [load_program(name) for name in list_fixtures(".cr")]
    programs += [gen_random_program(random.Random(seed)) for seed in range(300)]
    states = 0
    for prog in programs:
        start = ce.initial_configuration(prog)
        seen, frontier = {start}, [start]
        while frontier and len(seen) < 60:
            nxt = []
            for cfg in frontier:
                memo = _projection_or_failure(cfg)
                with monkeypatch.context() as m:
                    m.setattr(epp, "_known_projection", lambda c, r: None)
                    m.setattr(epp, "_remember_projection", lambda c, r, b: None)
                    fresh = _projection_or_failure(cfg)
                assert memo == fresh and repr(memo) == repr(fresh)
                states += 1
                for r in ce.reductions(cfg, prog.connectors):
                    if r.config not in seen:
                        seen.add(r.config)
                        nxt.append(r.config)
            frontier = nxt
    assert states > 1000


def test_projection_of_a_successor_ends_in_the_projected_tail() -> None:
    prog = load_program("booksale.cr")
    c = ce.normalize(prog.main)
    before = {r: project_behaviour(c, r) for r in "abc"}
    assert isinstance(c, Prefix)
    # the tail was projected with its parent and is not projected again
    for r, b in before.items():
        tail = project_behaviour(c.cont, r)
        assert tail is (b.cont if isinstance(b, (Send, Recv)) else b)
