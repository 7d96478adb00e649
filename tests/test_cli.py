from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from choreo import chor_engine as ce
from choreo import cli, textio
from choreo.core import TRUE

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


ONE_OR_TRUE = """
automaton Sync {
  states 1;
  ports p1, p2;
  init 1;
  1 -> 1 on p1 > p2;
}
connectors { c1: Sync[p/p1, q/p2]; c2: Sync[q/p1, r/p2]; }
init { p.c = false; }
main { if p.c then { q.1 -> r.x thru c2; 0 } else { q.true -> r.x thru c2; 0 } }
"""


def test_branches_sending_one_and_true_stay_apart(tmp_path: Path, capsys) -> None:
    # the branches differ only in the type of what q sends, so q has no
    # single behaviour, and its send cannot float out of the conditional
    f = tmp_path / "p.cr"
    f.write_text(ONE_OR_TRUE)
    code, out, _ = _run(capsys, "project", str(f))
    assert code == 1
    assert "not projectable" in out
    prog = textio.parse_program(ONE_OR_TRUE)
    res = ce.run(ce.initial_configuration(prog), prog.connectors)
    assert res.outcome is ce.Outcome.TERMINATED
    assert [step.kind for step in res.trace] == ["cond", "com"]
    assert res.final.sigma_map()[("r", "x")] is TRUE


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
    # the parser recurses once per nested conditional
    deep = tmp_path / "deep.cr"
    depth = 1200
    deep.write_text(
        "connectors {\n}\n\ninit {\n  a.x = true;\n}\n\nmain {\n"
        + "if a.x then {\n" * depth
        + "0\n"
        + "} else {\n0\n}\n" * depth
        + "}\n"
    )
    code, out, err = _run(capsys, "run", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["correspond", "booksale.cr", "--bound", "-1"],
        ["run", "booksale.cr", "--max-steps", "-5"],
        ["simulate", "booksale.cp", "--max-steps", "-5"],
    ],
)
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_negative_bound_or_step_limit_is_rejected(capsys, argv, fmt) -> None:
    # neither may pass for an empty but complete search or run
    cmd, name, *rest = argv
    code, out, err = _run(capsys, cmd, _fx(name), *rest, *fmt)
    assert (code, out) == (2, "")
    assert err == f"error: {rest[0]} must not be negative\n"


def test_check_long_chain_from_a_file(tmp_path: Path, capsys) -> None:
    # the precondition walks and the size metric loop along prefix spines
    chain = tmp_path / "chain.cr"
    chain.write_text(ring_chain(1200)[0])
    code, out, err = _run(capsys, "check", str(chain))
    assert (code, err) == (0, "")
    assert out.startswith("compatible")


def test_correspond_long_chain_from_a_file(tmp_path: Path, capsys) -> None:
    # projection is memoised on the choreography's nodes and the pruning
    # order loops along action spines, so nothing recurses once per prefix
    chain = tmp_path / "chain.cr"
    chain.write_text(ring_chain(3000)[0])
    code, out, err = _run(capsys, "correspond", str(chain), "--bound", "100000")
    assert (code, err) == (0, "")
    assert "no gaps found" in out


CHECK_PINS = json.loads((Path(__file__).parent / "check_pins.json").read_text())


def test_check_output_is_pinned_on_every_fixture(capsys) -> None:
    # a yes pins its judgement count; a no pins everything it reports, with
    # values taken from the unmemoised checker, which the memo must keep
    assert sorted(CHECK_PINS) == sorted(p.name for p in FIXTURES.glob("*.cr"))
    for name, pinned in CHECK_PINS.items():
        code, out, _ = _run(capsys, "check", _fx(name), "--json")
        assert json.loads(out) == pinned, name
        assert code == (0 if pinned["compatible"] else 1)


RUN_PINS = json.loads((Path(__file__).parent / "run_pins.json").read_text())


def _run_pin_argvs() -> list[list[str]]:
    """The pinned command lines: `run` and `simulate` on every fixture that
    takes them, text and JSON, with and without a seed."""
    argvs = []
    for path in sorted(FIXTURES.glob("*.cr")) + sorted(FIXTURES.glob("*.cp")):
        for cmd in ("run", "simulate") if path.suffix == ".cr" else ("simulate",):
            for seed in ([], ["--seed", "3"]):
                for fmt in ([], ["--json"]):
                    argvs.append([cmd, path.name, "--max-steps", "300", *seed, *fmt])
    return argvs


def _run_pin(code: int, out: str, err: str) -> dict:
    """What a pin keeps of one command's result: its exit status, its error
    output and a digest of its output."""
    return {
        "exit": code,
        "stderr": err,
        "lines": out.count("\n"),
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
    }


def test_run_and_simulate_output_is_pinned_on_every_fixture(capsys) -> None:
    # recorded when every run still built every successor of every state
    argvs = {" ".join(argv): argv for argv in _run_pin_argvs()}
    assert sorted(RUN_PINS) == sorted(argvs)
    for key, (cmd, name, *rest) in argvs.items():
        assert _run_pin(*_run(capsys, cmd, _fx(name), *rest)) == RUN_PINS[key], key
