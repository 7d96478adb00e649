"""Acceptance gate: one test per criterion, one pass/fail line each under -v.

Each test prints an [A-number] summary line; run with -s to see them inline.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from pathlib import Path

from choreo import chor_engine as ce
from choreo import compat, cp_engine, epp, textio
from choreo.core import (
    BOT,
    Call,
    Constraint,
    Def,
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
    desugar_multicast,
    instantiate,
    validate_interaction_set,
)
from choreo.harness import correspondence_check, exhaustive_explore

from conftest import FIXTURES, fixture_text, list_fixtures, load_automaton, load_program
from support import (
    advance_until_connector,
    gen_random_program,
    oracle_by_label,
    oracle_eta_reductions,
)


def _flow(a: str, b: str) -> Flow:
    return Flow(Port(a), Port(b))


def test_a01_booksale_first_two_reductions_are_exact() -> None:
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)

    rs = ce.reductions(cfg, prog.connectors)
    assert len(rs) == 1
    r1 = rs[0]
    assert (r1.subject, r1.pre_state, r1.post_state) == ("a2c", "1", "2")
    state, mu = r1.config.astate_map()["a2c"]
    assert (state, mu) == ("2", {"m": "foo"})

    rs2 = ce.reductions(r1.config, prog.connectors)
    assert len(rs2) == 1
    r2 = rs2[0]
    assert (r2.subject, r2.pre_state, r2.post_state) == ("a2c", "2", "1")
    assert r2.config.sigma_map()[("c", "title")] == "foo"
    # the cell is not cleared by the delivery
    assert r2.config.astate_map()["a2c"][1] == {"m": "foo"}
    print("[A1] book-sale first two reductions exact, cell retained")


def test_a02_barrier_fires_once_moving_money_and_book_together() -> None:
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)
    assert cfg.sigma_map()[("a", "money")] == "$10"
    assert cfg.sigma_map()[("c", "book")] == "foo.pdf"
    at_barrier = advance_until_connector(cfg, prog.connectors, "ac2bs")
    rs = ce.reductions(at_barrier, prog.connectors)
    assert len(rs) == 1
    r = rs[0]
    assert r.phi == Constraint.of(_flow("a", "b"), _flow("c", "s"))
    sigma = r.config.sigma_map()
    assert sigma[("b", "money")] == "$10"
    assert sigma[("s", "book")] == "foo.pdf"
    print("[A2] barrier moves b.money and s.book in one reduction")


def test_a03_alternator_admits_exactly_the_two_interleavings() -> None:
    prog = load_program("booksale_alternator.cr")
    cfg = ce.initial_configuration(prog)
    start = advance_until_connector(cfg, prog.connectors, "ac2bs")
    ex = exhaustive_explore(start, prog.connectors, bound=5)
    assert not ex.truncated
    assert len(ex.nodes) == 4
    assert len(ex.edges) == 4
    assert len(ex.terminated) == 1
    (final,) = ex.terminated

    first_steps = {info[2] for src, info, dst in ex.edges if src == start}
    assert first_steps == {("a>b",), ("c>s",)}
    # no single joint step from the start to the final state
    assert not any(src == start and dst == final for src, _, dst in ex.edges)
    # both interleavings converge
    mids = {dst for src, _, dst in ex.edges if src == start}
    assert len(mids) == 2
    for mid in mids:
        assert any(src == mid and dst == final for src, _, dst in ex.edges)
    print("[A3] alternator: two 2-step orderings, no 1-step joint reduction")


def test_a04_compatibility_verdict_table() -> None:
    expectations = [
        ("booksale.cr", True, None),
        ("booksale_alternator.cr", True, None),
        ("booksale_resp1.cr", False, "2"),
        ("booksale_resp2.cr", False, "1"),
        ("booksale_resp3.cr", False, "3"),
    ]
    for name, expect_yes, fail_state in expectations:
        prog = load_program(name)
        v = compat.check_compatibility(prog.main, prog.connectors)
        assert v.compatible == expect_yes, name
        if not expect_yes:
            assert v.reason == (
                "no connector transition can serve any head interaction set"
            ), name
            j = v.judgement
            assert j.astate_map()["ac2bs"][0] == fail_state, name
            # the refused head is the exchange routed through the barrier
            assert "thru ac2bs" in textio.pretty_chor(j.chor).splitlines()[0]
            assert v.tried and all(
                line.startswith("ac2bs ") and line.endswith(": no match")
                for line in v.tried
            ), name
    print("[A4] verdicts: Yes, Yes, No(2), No(1), No(3) on the barrier mapping")


def test_a05_no_verdict_despite_no_reachable_deadlock() -> None:
    for name in ("loop_barrier.cr", "loop_oneway.cr"):
        prog = load_program(name)
        cfg = ce.initial_configuration(prog)
        ex = exhaustive_explore(cfg, prog.connectors, bound=30)
        assert not ex.stuck, name
        v = compat.check_compatibility(prog.main, prog.connectors)
        assert not v.compatible, name
    print("[A5] loop fixtures: never stuck to bound 30, still rejected")


def test_a06_deadlock_witnesses_and_their_classes() -> None:
    expected = [
        ("booksale_resp1.cr", "port-mismatch"),
        ("booksale_resp2.cr", "port-mismatch"),
        ("booksale_resp3.cr", "value-mismatch"),
    ]
    for name, cls in expected:
        prog = load_program(name)
        res = ce.run(ce.initial_configuration(prog), prog.connectors)
        assert res.outcome is ce.Outcome.STUCK, name
        rep = ce.report_stuck(res.final, prog.connectors)
        assert rep.classification == cls, (name, rep)
    print("[A6] stuck runs classified: port, port, value")


def test_a07_projection_equals_the_four_process_golden() -> None:
    prog = load_program("booksale.cr")
    cfg = ce.initial_configuration(prog)
    net = epp.project_network(ce.normalize(prog.main), cfg.sigma_map())
    projected = cp_engine.CpProgram(
        epp.project_connectors(prog.connectors),
        cp_engine.NetConfiguration.make(net, cfg.astate_map()),
    )
    golden = textio.parse_cp(fixture_text("booksale.cp"))
    assert projected.automata == golden.automata
    assert projected.init.net == golden.init.net
    assert projected.init.astate == golden.init.astate
    assert textio.pretty_cp(projected) == fixture_text("booksale.cp")
    print("[A7] book-sale projection matches the golden network exactly")


def _count_selects(b) -> int:
    if isinstance(b, epp.SelSend):
        return 1 + _count_selects(b.cont)
    if isinstance(b, (epp.Send, epp.Recv)):
        return _count_selects(b.cont)
    if isinstance(b, epp.Branch):
        return sum(_count_selects(c) for _, c in b.cases)
    if isinstance(b, epp.BCond):
        return _count_selects(b.then_branch) + _count_selects(b.else_branch)
    if isinstance(b, epp.BDef):
        return _count_selects(b.body) + _count_selects(b.cont)
    return 0


def test_a08_multicast_projects_one_selection_sequence_two() -> None:
    multi = load_program("referee_multicast.cr")
    seq = load_program("referee_sequence.cr")
    assert _count_selects(epp.project_behaviour(ce.normalize(multi.main), "r")) == 1
    assert _count_selects(epp.project_behaviour(ce.normalize(seq.main), "r")) == 2
    print("[A8] referee: one selection when multicast, two when sequenced")


def test_a09_independent_interactions_can_reorder() -> None:
    prog = load_program("reorder.cr")
    cfg = ce.initial_configuration(prog)
    rs = ce.reductions(cfg, prog.connectors)
    tv_first = [
        r
        for r in rs
        if r.subject == "g2" and "t" in r.phi.ports_used()
    ]
    assert tv_first
    print("[A9] t-to-v exchange fires first although written second")


def test_a10_operational_correspondence_is_gap_free() -> None:
    for name in ("booksale.cr", "booksale_alternator.cr"):
        report = correspondence_check(load_program(name), bound=25)
        assert report.ok, (name, report.gaps)
    bad = 0
    for i in range(200):
        prog = gen_random_program(random.Random(1000 + i))
        report = correspondence_check(prog, bound=25)
        if not report.ok:
            bad += 1
    assert bad == 0
    print("[A10] zero gaps on both book-sale mappings and 200 random programs")


def test_a11_matcher_agrees_with_the_reduction_oracle() -> None:
    procs = ["p", "q", "r"]
    cells = ["c1", "c2"]

    pool: list = []
    for y in procs:
        for x in procs:
            if x != y:
                pool.append(ValCom(x, Var("m0"), y, "w"))
                pool.append(Sel(x, y, "go"))
        pool.append(RecvVal(y, "w", "dp"))
        pool.append(RecvSel(y, "go"))

    eta_sets = []
    for n in (1, 2, 3):
        for combo in itertools.combinations(pool, n):
            s = frozenset(combo)
            if len(s) == n and not validate_interaction_set(s):
                eta_sets.append(s)

    ends = [Port(p) for p in procs] + [Mem(c) for c in cells]
    flows = [
        Flow(a, b)
        for a in ends
        for b in ends
        if not (isinstance(a, Port) and isinstance(b, Port) and a == b)
    ]
    candidates = [Constraint(frozenset([f])) for f in flows] + [
        Constraint(frozenset(c)) for c in itertools.combinations(flows, 2)
    ]

    sigma = {(x, "m0"): "d" + x for x in procs}
    snapshots = [
        {"c1": BOT, "c2": BOT},
        {"c1": "dp", "c2": BOT},
        {"c1": Label("go"), "c2": "dq"},
        {"c1": "dx", "c2": Label("no")},
    ]

    states = 0
    disagreements = 0
    for etas in eta_sets:
        senders = {e.sender for e in etas if isinstance(e, (ValCom, Sel))}
        receivers = {e.receiver for e in etas}
        relevant = []
        for phi in candidates:
            ok = True
            for f in phi.flows:
                if isinstance(f.src, Port) and f.src.name not in senders:
                    ok = False
                if isinstance(f.dst, Port) and f.dst.name not in receivers:
                    ok = False
            if ok:
                relevant.append(phi)
        relevant_set = frozenset(relevant)
        for mu in snapshots:
            states += 1
            by_label = oracle_by_label(
                oracle_eta_reductions(etas, sigma, mu, max_label=2)
            )
            # skipping structurally impossible candidates must hide nothing
            for lbl in by_label:
                assert lbl in relevant_set, (lbl, etas)
            for phi in relevant:
                m = ce.match_transition(etas, phi, sigma, mu)
                want = by_label.get(phi)
                if m is None:
                    if want:
                        disagreements += 1
                else:
                    out_etas, sigma_writes, mu_writes = m
                    key = (
                        out_etas,
                        tuple(sorted({**sigma, **sigma_writes}.items())),
                        tuple(sorted({**mu, **mu_writes}.items(), key=lambda kv: kv[0])),
                    )
                    if want is None or key not in want:
                        disagreements += 1
    assert states == 1200
    assert disagreements == 0
    print(f"[A11] matcher equals oracle on {states} enumerated states")


def _transition_shapes(t) -> list[tuple]:
    """The interaction set each transition of t serves, as one prefix's
    (sender, receivers) pairs: a port-to-cell flow's receivers are the ports
    that read that cell.  Transitions that take no send give none."""
    readers: dict[str, set[str]] = {}
    for tr in t.transitions:
        for f in tr.phi.flows:
            if isinstance(f.src, Mem) and isinstance(f.dst, Port):
                readers.setdefault(f.src.name, set()).add(f.dst.name)
    shapes = []
    for tr in t.transitions:
        sends: dict[str, set[str]] = {}
        for f in tr.phi.flows:
            if isinstance(f.src, Port):
                rs = {f.dst.name} if isinstance(f.dst, Port) else readers.get(f.dst.name, set())
                sends.setdefault(f.src.name, set()).update(rs)
        shape = tuple((s, tuple(sorted(rs))) for s, rs in sorted(sends.items()) if rs)
        if shape and shape not in shapes:
            shapes.append(shape)
    return shapes


def _prefix_before_call_programs():
    """`def X = {B; X} in {P; X}` through one connector g, for every `.ca`
    template and for `once.cr`'s Once.  P and B are each one interaction, in
    every combination, or one or two at seeded choices; an interaction goes
    from a port that sends to one or two ports that receive.  Then P and B
    are each one or two of the interaction sets the template's transitions
    serve (`_transition_shapes`), in every combination."""
    templates = [load_automaton(name) for name in list_fixtures(".ca")]
    templates.append(load_program("once.cr").automata["Once"])
    rng = random.Random(12)
    for t in templates:
        owners = {port: f"q{i}" for i, port in enumerate(t.ports)}
        flows = [f for tr in t.transitions for f in tr.phi.flows]
        senders = sorted({f.src.name for f in flows if isinstance(f.src, Port)})
        receivers = sorted({f.dst.name for f in flows if isinstance(f.dst, Port)})
        shapes = [
            ((s, rs),)
            for s in senders
            for n in (1, 2)
            for rs in itertools.combinations([r for r in receivers if r != s], n)
        ]

        def chain(shapes, cont):
            # one prefix per shape, carrying each of its multicasts
            for shape in reversed(shapes):
                etas = frozenset().union(
                    *(desugar_multicast(owners[s], Var("x"), [(owners[r], "y") for r in rs])
                      for s, rs in shape)
                )
                cont = Prefix(etas, "g", cont)
            return cont

        combos = [((p,), (b,)) for p in shapes for b in shapes]
        combos += [
            tuple(tuple(rng.choice(shapes) for _ in range(rng.randint(1, 2))) for _ in "PB")
            for _ in range(10)
        ]
        joint = _transition_shapes(t)
        runs = [(x,) for x in joint] + list(itertools.product(joint, repeat=2))
        combos += list(itertools.product(runs, repeat=2))
        for pre, body in combos:
            main = Def("X", chain(body, Call("X")), chain(pre, Call("X")))
            yield textio.Program(
                {t.name: t},
                {"g": (t.name, owners)},
                {"g": instantiate(t, owners, name="g")},
                {(q, "x"): 1 for q in owners.values()},
                {},
                ce.normalize(main),
            )


def test_a12_yes_plus_confluent_means_never_stuck() -> None:
    # over the fixtures, and over loops whose continuation fires before the
    # first call: a body checked from the def's state, not the first call's,
    # said Yes on Once and on some Alternator and Relay2 loops that get stuck
    programs = [load_program(path.name) for path in sorted(FIXTURES.glob("*.cr"))]
    programs += _prefix_before_call_programs()
    checked = 0
    yes_by_template: Counter = Counter()
    for prog in programs:
        if not all(compat.check_confluence(a).confluent for a in prog.connectors.values()):
            continue
        if not compat.check_compatibility(prog.main, prog.connectors).compatible:
            continue
        ex = exhaustive_explore(ce.initial_configuration(prog), prog.connectors, bound=30)
        assert not ex.stuck, textio.pretty_chor(prog.main)
        checked += 1
        yes_by_template.update(list(prog.automata))
    assert checked >= 100
    # the transition-made loops reach Yes where one multicast per prefix
    # cannot: a round of two sets in turn (Alternator, Chain4), two senders
    # at once (Rendezvous), one sender to three receivers (Spread3)
    for name in ("Alternator", "Chain4", "Rendezvous", "Spread3"):
        assert yes_by_template[name] >= 1, name
    print(f"[A12] {checked} compatible+confluent checks never get stuck")


def test_a13_limits_documented_and_metric_assert_executes() -> None:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    lowered = readme.lower()
    assert "undecidable" in lowered
    assert "documented" in lowered and ("quadratic" in lowered or "bound" in lowered)

    # the decrease assertion must actually run on every worklist step
    import choreo.compat as compat_mod

    prog = load_program("booksale.cr")
    original = compat_mod.size
    try:
        compat_mod.size = lambda c: 10**6
        try:
            compat_mod.check_compatibility(prog.main, prog.connectors)
            raised = False
        except AssertionError:
            raised = True
    finally:
        compat_mod.size = original
    assert raised
    print("[A13] undecidability and cost documented; metric assert is live")
