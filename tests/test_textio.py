from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from choreo import textio
from choreo.core import (
    Cond,
    END,
    InputError,
    Label,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    TRUE,
    ValCom,
    Var,
)
from choreo.textio import ParseError

from conftest import FIXTURES, fixture_text, load_program, ring_chain
from support import pretty_program

CA_NAMES = sorted(p.name for p in FIXTURES.glob("*.ca"))
CR_NAMES = sorted(p.name for p in FIXTURES.glob("*.cr"))


@pytest.mark.parametrize("name", CA_NAMES)
def test_automaton_round_trip(name: str) -> None:
    a = textio.parse_automaton(fixture_text(name))
    again = textio.parse_automaton(textio.pretty_automaton(a))
    assert again == a


@pytest.mark.parametrize("name", CR_NAMES)
def test_program_round_trip(name: str) -> None:
    prog = load_program(name)
    again = textio.parse_program(pretty_program(prog))
    assert again.main == prog.main
    assert again.connectors == prog.connectors
    assert again.init_sigma == prog.init_sigma


def test_cp_round_trip() -> None:
    cp = textio.parse_cp(fixture_text("booksale.cp"))
    assert textio.pretty_cp(cp) == fixture_text("booksale.cp")
    again = textio.parse_cp(textio.pretty_cp(cp))
    assert again.automata == cp.automata
    assert again.init.net == cp.init.net
    assert again.init.astate == cp.init.astate


def test_long_chain_parses_and_prints_without_recursion() -> None:
    # the parser and the printer walk the prefix spine in loops
    prog = textio.parse_program(ring_chain(2000)[0])
    c, prefixes = prog.main, 0
    while isinstance(c, Prefix):
        c, prefixes = c.cont, prefixes + 1
    assert prefixes == 2000
    assert textio.parse_program(pretty_program(prog)).main == prog.main


def test_long_cp_process_round_trips() -> None:
    n = 2000
    text = (
        "automaton g {\n  states 1;\n  ports o_a_g, i_b_g;\n  init 1;\n"
        "  1 -> 1 on o_a_g > i_b_g;\n}\n\ninit {\n  a.x = 1;\n}\n\nnetwork {\n"
        "  a {\n" + "    send o_g <x + 1>;\n" * n + "    0\n  }\n"
        "  b {\n" + "    recv i_g y;\n" * n + "    0\n  }\n}\n"
    )
    cp = textio.parse_cp(text)
    assert textio.pretty_cp(cp) == text
    again = textio.parse_cp(textio.pretty_cp(cp))
    assert again.init.net == cp.init.net
    assert again.automata == cp.automata


PROLOGUE = """
automaton Sync {
  states 1;
  ports p1, p2;
  init 1;
  1 -> 1 on p1 > p2;
}

connectors { g: Sync[a/p1, b/p2]; }
init { a.x = 1; }
"""


def _main(body: str) -> str:
    return PROLOGUE + "main { " + body + " }"


def test_parse_minimal_program() -> None:
    prog = textio.parse_program(_main("a.x -> b.y thru g; 0"))
    assert prog.main == Prefix(frozenset({ValCom("a", Var("x"), "b", "y")}), "g", END)
    assert prog.init_sigma == {("a", "x"): 1}


def test_parse_multicast_and_sets() -> None:
    prog = textio.parse_program(_main("a -> {b} [go] thru g; {a.x -> b.y} thru g; 0"))
    first = prog.main
    assert isinstance(first, Prefix)
    assert first.etas == frozenset({Sel("a", "b", "go")})
    second = first.cont
    assert isinstance(second, Prefix)
    assert second.etas == frozenset({ValCom("a", Var("x"), "b", "y")})


def test_parse_cond_and_literals() -> None:
    prog = textio.parse_program(_main("if a.x then { 0 } else { 0 }"))
    assert isinstance(prog.main, Cond)
    assert prog.main.process == "a"
    assert prog.main.guard == Var("x")


def test_parse_def_and_call() -> None:
    prog = textio.parse_program(_main("def X = { a.x -> b.y thru g; X } in { X }"))
    assert prog.main.name == "X"


def test_runtime_terms_are_opt_in() -> None:
    body = "{b.y ? 7} thru g; 0"
    with pytest.raises(ParseError):
        textio.parse_program(_main(body))
    prog = textio.parse_program(_main(body), runtime=True)
    assert prog.main.etas == frozenset({RecvVal("b", "y", 7)})
    sel_body = "{b ? [go]} thru g; 0"
    prog2 = textio.parse_program(_main(sel_body), runtime=True)
    assert prog2.main.etas == frozenset({RecvSel("b", "go")})


def test_parse_error_carries_position() -> None:
    with pytest.raises(ParseError) as err:
        textio.parse_program(_main("a.x -> ; 0"))
    assert re.match(r"\d+:\d+:", str(err.value))


@pytest.mark.parametrize(
    "init, main, where",
    [
        ('a.x = "two\nlines"; @', "0", "8:9"),  # on the literal's last line
        ('a.x = "two\nlines";', "@", "9:8"),  # on a later line
    ],
)
def test_positions_count_raw_newlines_in_strings(init: str, main: str, where: str) -> None:
    src = (
        "automaton Sync {\n"
        "  states 1;\n"
        "  ports p1, p2;\n"
        "  init 1;\n"
        "  1 -> 1 on p1 > p2;\n"
        "}\n"
        "connectors { g: Sync[a/p1, b/p2]; } init { " + init + " }\n"
        "main { " + main + " }\n"
    )
    with pytest.raises(ParseError) as err:
        textio.parse_program(src)
    assert str(err.value).startswith(where + ": unexpected character '@'")


TOKEN_PINS = json.loads((Path(__file__).parent / "token_pins.json").read_text(encoding="utf-8"))


def _tokens(src: str) -> list[list]:
    return [list(t) for t in textio._tokenize(src)]


def test_token_streams_are_pinned() -> None:
    # (kind, text, line, col) of every token of every fixture, and of a source
    # with tabs, comments, every escape, strings over several lines and
    # identifiers led by '_' or a non-ASCII letter.  Each pinned stream ends
    # in its eof token, which the lexer repeats so that looking one token
    # ahead never runs off the end.
    assert sorted(TOKEN_PINS["fixtures"]) == sorted(
        p.name for p in FIXTURES.iterdir() if p.suffix in (".ca", ".cr", ".cp")
    )
    for name, pinned in TOKEN_PINS["fixtures"].items():
        assert _tokens(fixture_text(name)) == pinned + pinned[-1:], name
    edge = TOKEN_PINS["edge"]
    assert _tokens(edge["source"]) == edge["tokens"] + edge["tokens"][-1:]


@pytest.mark.parametrize(
    "src, error",
    [
        ('a.x = "two\nlines"; @', "2:9: unexpected character '@'"),
        ('a.x = "abc', "1:7: unterminated string"),
        ('x\n  "ab\ncd', "2:3: unterminated string"),
        ('x "ab\\', "1:3: unterminated string"),  # the backslash escapes nothing
        ("a.x = \u00b2;", "1:7: unexpected character '\u00b2'"),
        ("a.x = 1\u00b2;", "1:8: unexpected character '\u00b2'"),
        ("a.x = \u0663;", "1:7: unexpected character '\u0663'"),  # numbers are ASCII digits
    ],
)
def test_lexer_errors_carry_their_position(src: str, error: str) -> None:
    with pytest.raises(ParseError) as err:
        textio._tokenize(src)
    assert str(err.value) == error


def test_unknown_connector_rejected() -> None:
    with pytest.raises(InputError) as err:
        textio.parse_program(_main("a.x -> b.y thru nosuch; 0"))
    assert "nosuch" in str(err.value)


def test_unbound_call_rejected() -> None:
    with pytest.raises(InputError):
        textio.parse_program(_main("Y"))
    # each undefined procedure is named once, in name order
    with pytest.raises(InputError) as err:
        textio.parse_program(_main("if a.x then { Z } else { if a.x then { Y } else { Z } }"))
    assert str(err.value) == "call of undefined procedure Y; call of undefined procedure Z"


def test_duplicate_connector_binding_rejected() -> None:
    src = PROLOGUE.replace("g: Sync[a/p1, b/p2];", "g: Sync[a/p1, b/p2]; g: Sync[a/p1, b/p2];")
    with pytest.raises(ParseError):
        textio.parse_program(src + "main { 0 }")


def test_invalid_automaton_rejected_at_parse() -> None:
    bad = """
automaton Broken {
  states 1;
  ports p1, p2;
  init 1;
  1 -> 1 on p2 > p1;
  1 -> 2 on p1 > p2;
}
"""
    with pytest.raises(InputError):
        textio.parse_automaton(bad)


def test_cell_override_routed_to_connector() -> None:
    src = """
automaton B {
  states 1, 2;
  ports p1, p2;
  mems m;
  init 1;
  1 -> 2 on p1 > m;
  2 -> 1 on m > p2;
}
connectors { g: B[a/p1, b/p2]; }
init { g.m = "seed"; a.x = 2; }
main { 0 }
"""
    prog = textio.parse_program(src)
    assert prog.connectors["g"].init_mem_map() == {"m": "seed"}
    assert prog.init_sigma == {("a", "x"): 2}
    with pytest.raises(InputError):
        textio.parse_program(src.replace("g.m", "g.zz"))


def test_literals_and_values() -> None:
    src = PROLOGUE.replace(
        "init { a.x = 1; }",
        'init { a.x = 1; a.y = "s"; a.z = true; a.w = [done]; }',
    )
    prog = textio.parse_program(src + "main { 0 }")
    assert prog.init_sigma[("a", "y")] == "s"
    assert prog.init_sigma[("a", "z")] is TRUE
    assert prog.init_sigma[("a", "w")] == Label("done")


def test_comments_are_skipped() -> None:
    prog = textio.parse_program("# leading comment\n" + _main("0 # trailing\n"))
    assert prog.main == textio.parse_program(_main("0")).main


def test_format_value_round_trips_literals() -> None:
    assert textio.format_value(7) == "7"
    assert textio.format_value("s") == '"s"'
    assert textio.format_value(TRUE) == "true"
    assert textio.format_value(Label("go")) == "[go]"


def test_pretty_expr_round_trips_operators() -> None:
    e = textio.parse_program(_main("if a.x = 1 + 2 then { 0 } else { 0 }")).main.guard
    assert textio.pretty_expr(e) == "x = 1 + 2"
    e2 = textio.parse_program(_main("if a.(not x) then { 0 } else { 0 }")).main.guard
    assert textio.pretty_expr(e2) == "not x"


def test_pretty_expr_keeps_parentheses_on_a_comparison_operand() -> None:
    # comparisons do not associate, so a comparison operand keeps its parentheses
    for guard in ("(n < 3) = false", "(x = y) = z"):
        e3 = textio.parse_program(_main(f"if a.({guard}) then {{ 0 }} else {{ 0 }}")).main.guard
        printed = _main(f"if a.({textio.pretty_expr(e3)}) then {{ 0 }} else {{ 0 }}")
        assert textio.parse_program(printed).main.guard == e3
