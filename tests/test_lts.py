from __future__ import annotations

import pytest

from choreo import chor_engine as ce
from choreo import cp_engine as cpe
from choreo import textio
from choreo.lts import Outcome, Step, run, search

from conftest import fixture_text, load_program


def _graph(edges: dict[int, list[int]]):
    """A successor function over the given graph that logs every state it
    is called on."""
    calls: list[int] = []

    def successors(n: int) -> list[Step]:
        calls.append(n)
        return [Step("cond", "p", None, "then", None, None, m) for m in edges.get(n, [])]

    return successors, calls


def test_search_without_a_termination_test_never_expands_the_last_level() -> None:
    successors, calls = _graph({n: [n + 1] for n in range(10)})
    res = search(0, successors, 3)
    assert calls == [0, 1, 2]
    assert res.nodes == {0, 1, 2, 3}
    assert res.truncated


def test_search_without_a_termination_test_is_truncated_exactly_when_states_remain() -> None:
    # 2 has no step, but at depth 2 it is left at the bound unexamined
    edges = {0: [1], 1: [2]}
    for depth, truncated in ((0, True), (1, True), (2, True), (3, False), (9, False)):
        successors, calls = _graph(edges)
        res = search(0, successors, depth)
        assert res.truncated is truncated, depth
        assert calls == [0, 1, 2][:depth]
        assert res.stuck == ({2} if depth > 2 else set())


def test_search_rejects_a_negative_depth() -> None:
    # a negative depth would loop no level and report a complete search
    successors, calls = _graph({0: [1]})
    for terminated in (None, lambda n: False):
        with pytest.raises(ValueError):
            search(0, successors, -1, terminated)
    assert calls == []


def test_run_rejects_a_negative_step_limit() -> None:
    # a negative limit would take no step and report the limit as reached
    successors, calls = _graph({0: [1]})
    with pytest.raises(ValueError):
        run(0, successors, lambda n: False, -1, None)
    assert calls == []
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)
    with pytest.raises(ValueError):
        ce.run(cfg, prog.connectors, max_steps=-5)
    assert ce.run(cfg, prog.connectors, max_steps=0).outcome is Outcome.MAX_STEPS
    cp = textio.parse_cp(fixture_text("booksale.cp"))
    with pytest.raises(ValueError):
        cpe.cp_run(cp.init, cp.automata, max_steps=-5)


def test_search_with_a_termination_test_classifies_the_last_level() -> None:
    edges = {0: [1, 2], 1: [3]}
    successors, calls = _graph(edges)
    res = search(0, successors, 1, lambda n: n == 2)
    assert calls == [0, 1]
    assert res.terminated == {2}
    assert res.stuck == set()
    assert res.truncated
    successors, calls = _graph(edges)
    res = search(0, successors, 2, lambda n: n == 2)
    assert calls == [0, 1, 3]
    assert (res.terminated, res.stuck, res.truncated) == ({2}, {3}, False)


def test_search_edges_hold_the_states_it_keeps() -> None:
    # every call builds fresh but equal successor objects
    def successors(n: tuple) -> list[Step]:
        return [Step("cond", "p", None, "then", None, None, (m,)) for m in ((n[0] + 1) % 3, 0)]

    start = (0,)
    res = search(start, successors, 6)
    assert res.nodes == {(0,), (1,), (2,)}
    held = {id(n) for n in res.nodes}
    assert id(start) in held
    assert len(res.edges) == 5
    for src, _label, dst in res.edges:
        assert id(src) in held and id(dst) in held
