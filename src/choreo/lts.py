"""The labelled transition system both semantics share.

A semantics hands in a successor function, from a state to an iterable of
its `Step`s in a fixed order, and a test for successful termination.  `run`
drives one execution, `search` explores breadth first, and `stuck_report`
explains a state that has no step.  `run`'s successor function may build
its steps lazily: without an rng it takes only the first, so a generator
builds only the step taken.  `search` expands every step and takes a list.
A `StepMemo` carries a semantics' structural work on terms under a def from
one step of a run or search to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, NamedTuple

# the stage at which an attempted transition failed
FAIL_PORTS = "ports"  # shape: ports and interaction or action kinds
FAIL_VALUE = "value"  # a stored datum failed a premise


class Step(NamedTuple):
    """One reduction.  A named tuple: every engine builds one per successor,
    and a tuple is built in one call where a frozen dataclass sets each field
    in turn."""

    kind: str  # "com" | "cond"
    subject: str  # connector for com, deciding process for cond
    phi: "object | None"  # the fired constraint, for com
    branch: "str | None"  # "then" | "else", for cond
    pre_state: "str | None"
    post_state: "str | None"
    config: object

    @property
    def label(self) -> tuple:
        """What the step does, apart from the state it leads to."""
        if self.kind == "com":
            return ("com", self.subject, _flow_strings(self.phi))
        return ("cond", self.subject, self.branch)


@lru_cache(maxsize=8192)
def _flow_strings(phi) -> tuple:
    """A constraint's flows as text, in canonical order, once per constraint."""
    return tuple(str(f.src) + ">" + str(f.dst) for f in phi.sorted_flows())


Successors = Callable[[object], Iterable[Step]]


class Seen:
    """The keys a successor function has yielded, for its dedup.  The first
    key is held without hashing it, and the set is made when a second comes:
    a run without a seed takes the first successor alone, so it hashes no
    configuration."""

    __slots__ = ("first", "keys")

    def __init__(self) -> None:
        self.first = None
        self.keys: "set | None" = None

    def add(self, key) -> bool:
        """Record key; False if it was recorded before."""
        if self.first is None:
            self.first = key
            return True
        keys = self.keys
        if keys is None:
            keys = self.keys = {self.first}
        if key in keys:
            return False
        keys.add(key)
        return True


class StepMemo(dict):
    """What one run or one search works out once about each term it steps
    through under a procedure definition, keyed by that term: what the term
    brings to the head, each with a rebuild that gives the normal term for a
    step's outcome, once per outcome (`rebuilt_once`).  A recursive
    procedure comes back to the same few terms round after round while its
    stores and cells change, so matching, evaluation and writes still run on
    every step.  The call that makes a memo drops it when it returns: no
    term outlives that call through it, and every call starts cold."""

    __slots__ = ()


def rebuilt_once(rebuild: Callable, normalize: Callable) -> Callable:
    """normalize(rebuild(x)), worked out once for each x."""
    built: dict = {}

    def once(x):
        t = built.get(x)
        if t is None:
            t = built[x] = normalize(rebuild(x))
        return t

    return once


class Outcome(Enum):
    TERMINATED = "terminated"
    STUCK = "stuck"
    MAX_STEPS = "max-steps"


@dataclass
class RunResult:
    outcome: Outcome
    final: object
    trace: list[Step]


def run(
    cfg,
    successors: Successors,
    terminated: Callable[[object], bool],
    max_steps: int,
    rng: "random.Random | None",
) -> RunResult:
    """Drive one execution.  Without an rng the scheduler takes the first
    step in enumeration order, and asks for no other; with one, it lists
    every step and takes a uniformly random one."""
    if max_steps < 0:
        raise ValueError(f"step limit {max_steps} is negative")
    trace: list[Step] = []
    while True:
        if terminated(cfg):
            return RunResult(Outcome.TERMINATED, cfg, trace)
        steps = list(islice(successors(cfg), 1 if rng is None else None))
        if not steps:
            return RunResult(Outcome.STUCK, cfg, trace)
        if len(trace) >= max_steps:
            return RunResult(Outcome.MAX_STEPS, cfg, trace)
        step = steps[0] if rng is None else rng.choice(steps)
        trace.append(step)
        cfg = step.config


@dataclass
class Search:
    nodes: set
    edges: set  # (state, step label, next state)
    stuck: set
    terminated: set
    truncated: bool


def search(
    start,
    successors: Callable[[object], "list[Step]"],
    depth: int,
    terminated: "Callable[[object], bool] | None" = None,
) -> Search:
    """Breadth-first closure of `successors` from `start`, `depth` levels
    deep.  A state without steps is recorded as stuck and a state the
    termination test accepts as terminated; neither is expanded.

    With a termination test, the states at the last level are classified as
    well: terminated, stuck, or, when they still have a step, as making the
    search `truncated`.  Without one, `successors` is never called on the
    last level, and `truncated` means that states were left there.

    Every edge, and every set of the result, holds the object first reached
    for a state, so an equal successor built later is not kept alive."""
    if depth < 0:
        raise ValueError(f"search depth {depth} is negative")
    res = Search({start}, set(), set(), set(), False)
    nodes, edges = res.nodes, res.edges
    held = {start: start}  # each member of nodes, by itself
    frontier = [start]
    for level in range(depth + 1):
        last = level == depth
        if last and terminated is None:
            res.truncated = True  # the frontier is never empty here
            break
        nxt = []
        for cur in frontier:
            if terminated is not None and terminated(cur):
                res.terminated.add(cur)
                continue
            steps = successors(cur)
            if not steps:
                res.stuck.add(cur)
                continue
            if last:
                res.truncated = True
                continue
            for step in steps:
                succ = held.setdefault(step.config, step.config)
                edges.add((cur, step.label, succ))
                if succ in nodes:
                    continue
                nodes.add(succ)
                nxt.append(succ)
        frontier = nxt
        if not frontier:
            break
    return res


@dataclass
class StuckReport:
    classification: str  # "port-mismatch" | "value-mismatch"
    details: list[str]


def stuck_report(failures: Iterable[tuple[str, str]], empty: str) -> StuckReport:
    """Explain a state without steps from its failed attempts, given as
    (detail, failure stage) pairs.  The state is a value mismatch if any
    attempt failed on a stored datum, a port mismatch otherwise; `empty` is
    the one detail when nothing was attempted."""
    details: list[str] = []
    classification = "port-mismatch"
    for detail, stage in failures:
        if stage == FAIL_VALUE:
            classification = "value-mismatch"
            details.append(f"{detail}: value mismatch")
        else:
            details.append(f"{detail}: port mismatch")
    return StuckReport(classification, details or [empty])
