from __future__ import annotations

import json
from pathlib import Path

import pytest

from choreo import cli

from conftest import FIXTURES, fixture_text, ring_chain


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fx(name: str) -> str:
    return str(FIXTURES / name)


def test_validate_program(capsys) -> None:
    code, out, _ = _run(capsys, "validate", _fx("booksale.cr"))
    assert code == 0
    assert "processes a, b, c, s" in out
    assert "connectors a2c, a2cbs, ac2bs, c2a" in out


def test_validate_automaton_and_network(capsys) -> None:
    code, out, _ = _run(capsys, "validate", _fx("buffer1.ca"))
    assert code == 0
    code, out, _ = _run(capsys, "validate", _fx("booksale.cp"))
    assert code == 0


def test_validate_rejects_broken_input(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.ca"
    bad.write_text("automaton Z { states 1; ports p1; init 2; }\n")
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_validate_missing_file(capsys) -> None:
    code, _, err = _run(capsys, "validate", "/nonexistent/zz.cr")
    assert code == 2


def test_check_compatible(capsys) -> None:
    code, out, _ = _run(capsys, "check", _fx("booksale.cr"))
    assert code == 0
    assert "compatible" in out


def test_check_incompatible_explains_itself(capsys) -> None:
    code, out, _ = _run(capsys, "check", _fx("booksale_resp2.cr"))
    assert code == 1
    assert "not compatible" in out
    assert "ac2bs" in out


def test_check_json_is_machine_readable(capsys) -> None:
    code, out, _ = _run(capsys, "check", "--json", _fx("booksale_resp1.cr"))
    assert code == 1
    data = json.loads(out)
    assert data["compatible"] is False


def test_run_trace_matches_the_golden_file(capsys) -> None:
    code, out, _ = _run(capsys, "run", _fx("booksale.cr"), "--seed", "0")
    assert code == 0
    assert out == fixture_text("booksale.trace.txt")


def test_run_stuck_exits_one(capsys) -> None:
    code, out, _ = _run(capsys, "run", _fx("booksale_resp1.cr"))
    assert code == 1
    assert "stuck" in out
    assert "port mismatch" in out or "port-mismatch" in out


def test_run_json(capsys) -> None:
    code, out, _ = _run(capsys, "run", "--json", _fx("booksale.cr"), "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "terminated"
    assert len(data["steps"]) == 7


def test_project_writes_the_golden_network(tmp_path: Path, capsys) -> None:
    out_file = tmp_path / "net.cp"
    code, _, _ = _run(capsys, "project", _fx("booksale.cr"), "-o", str(out_file))
    assert code == 0
    assert out_file.read_text() == fixture_text("booksale.cp")


def test_project_unprojectable_exits_one(tmp_path: Path, capsys) -> None:
    src = """
automaton Sync {
  states 1;
  ports p1, p2;
  init 1;
  1 -> 1 on p1 > p2;
}
connectors { g: Sync[a/p1, b/p2]; }
init { a.x = true; }
main { if a.x then { a.x -> b.y thru g; 0 } else { 0 } }
"""
    f = tmp_path / "p.cr"
    f.write_text(src)
    code, out, _ = _run(capsys, "project", str(f))
    assert code == 1
    assert "not projectable" in out


def test_simulate_network_file(capsys) -> None:
    code, out, _ = _run(capsys, "simulate", _fx("booksale.cp"))
    assert code == 0
    assert "terminated" in out


def test_simulate_projects_choreographies_on_the_fly(capsys) -> None:
    code, out, _ = _run(capsys, "simulate", _fx("booksale.cr"))
    assert code == 0
    assert "terminated" in out


def test_correspond_clean_and_gapped(capsys) -> None:
    code, out, _ = _run(capsys, "correspond", _fx("booksale.cr"))
    assert code == 0
    assert "0 gaps" in out or "no gaps" in out
    code, out, _ = _run(capsys, "correspond", _fx("booksale_resp3.cr"))
    assert code == 1


def test_trace_lines_have_the_documented_shape(capsys) -> None:
    _, out, _ = _run(capsys, "run", _fx("booksale.cr"), "--seed", "0")
    lines = out.splitlines()
    first = lines[0].split()
    assert first[0] == "1"
    assert first[1] == "com"
    assert first[2] == "a2c"
    assert "->" in lines[0]


def test_run_too_deeply_nested_is_an_input_error(tmp_path: Path, capsys) -> None:
    # the parser recurses once per prefix
    deep = tmp_path / "deep.cr"
    deep.write_text(ring_chain(1200)[0])
    code, out, err = _run(capsys, "run", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err
