from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from choreo import textio

FIXTURES = Path(
    os.environ.get("CHOREO_FIXTURES", Path(__file__).parent.parent / "src" / "choreo" / "fixtures")
)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_program(name: str) -> textio.Program:
    return textio.parse_program(fixture_text(name))


def load_expect(name: str) -> dict:
    return json.loads(fixture_text(name))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


RING_AUTOMATA = """automaton Sync {
  states 1;
  ports p1, p2;
  init 1;
  1 -> 1 on p1 > p2;
}

automaton Buffer1 {
  states 1, 2;
  ports p1, p2;
  mems m;
  init 1;
  1 -> 2 on p1 > m;
  2 -> 1 on m > p2;
}
"""


def ring_chain(n: int, seed: int = 0) -> tuple[str, int, dict]:
    """A straight-line choreography of n interactions around the ring of
    processes a -> b -> c -> a, each through the edge's Sync or Buffer1
    connector, chosen by a seeded coin.

    Returns the program text, the number of steps a run takes (one per Sync
    interaction, two per Buffer1 one) and the final store, replayed here."""
    rng = random.Random(seed)
    procs = ("a", "b", "c")
    variables = ("x", "y", "z")
    store = {(p, v): rng.randrange(100) for p in procs for v in variables}
    init = "".join(f"  {p}.{v} = {store[(p, v)]};\n" for p, v in sorted(store))
    bindings = "".join(
        f"  s{i}: Sync[{procs[i]}/p1, {procs[(i + 1) % 3]}/p2];\n"
        f"  b{i}: Buffer1[{procs[i]}/p1, {procs[(i + 1) % 3]}/p2];\n"
        for i in range(3)
    )
    lines, steps = [], 0
    for i in range(n):
        snd, rcv = procs[i % 3], procs[(i + 1) % 3]
        kind = rng.choice("sb")
        sv, rv, k = rng.choice(variables), rng.choice(variables), rng.randrange(10)
        lines.append(f"  {snd}.{sv} + {k} -> {rcv}.{rv} thru {kind}{i % 3};\n")
        store[(rcv, rv)] = store[(snd, sv)] + k
        steps += 1 if kind == "s" else 2
    text = (
        f"{RING_AUTOMATA}\nconnectors {{\n{bindings}}}\n\ninit {{\n{init}}}\n\n"
        f"main {{\n{''.join(lines)}  0\n}}\n"
    )
    return text, steps, store
