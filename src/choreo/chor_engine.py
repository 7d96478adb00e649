"""Small-step execution of choreographies against connector automata.

The matcher decides whether one interaction set can fire one flow constraint;
the exposure walk enumerates every head rewriting the structural precongruence
admits (swapping independent prefixes, splitting and re-merging sets on the
same connector, floating interactions out of conditionals, unfolding a call in
head position); `iter_reductions` combines both with the automaton states, one
successor at a time, and `reductions` lists them all.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator

from .core import (
    BOT,
    Bool,
    Call,
    Cond,
    Const,
    Constraint,
    ConnectorMapping,
    Def,
    END,
    End,
    Expr,
    FALSE,
    Flow,
    InputError,
    Interaction,
    Label,
    Mem,
    MemorySnapshot,
    Port,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    TRUE,
    UnOp,
    ValCom,
    Value,
    Var,
    check_value,
    pn_eta,
    pn_etas,
    sender_of,
    sorted_etas,
)
from . import lts
from .lts import FAIL_PORTS, FAIL_VALUE, Outcome, RunResult, Step, StuckReport


class EvalError(Exception):
    """Expression evaluation failed (unbound variable or operand mismatch)."""


# ---------------------------------------------------------------------------
# Expressions


def evaluate(e: Expr, get: Callable[[str], Value]) -> Value:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return get(e.name)
    if isinstance(e, UnOp):
        v = evaluate(e.operand, get)
        if not isinstance(v, Bool):
            raise EvalError(f"'not' applied to {v!r}")
        return FALSE if v else TRUE
    left = evaluate(e.left, get)
    if e.op in ("and", "or"):
        right = evaluate(e.right, get)
        if not (isinstance(left, Bool) and isinstance(right, Bool)):
            raise EvalError(f"'{e.op}' applied to non-booleans")
        return (left and right) if e.op == "and" else (left or right)
    right = evaluate(e.right, get)
    if e.op == "=":
        return TRUE if left == right else FALSE
    if e.op == "!=":
        return FALSE if left == right else TRUE
    if e.op == "<":
        if not (isinstance(left, int) and isinstance(right, int)):
            raise EvalError("'<' needs integers")
        return TRUE if left < right else FALSE
    if e.op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, int) and isinstance(right, int):
            return left + right
        raise EvalError("'+' needs two integers or two strings")
    if e.op == "-":
        if isinstance(left, int) and isinstance(right, int):
            return left - right
        raise EvalError("'-' needs integers")
    raise EvalError(f"unknown operator {e.op}")


def eval_expr(e: Expr, sigma: Mapping[tuple[str, str], Value], p: str) -> Value:
    """Evaluate e at process p against the global store."""

    def get(name: str) -> Value:
        try:
            return sigma[(p, name)]
        except KeyError:
            raise EvalError(f"unbound variable {p}.{name}") from None

    return evaluate(e, get)


# ---------------------------------------------------------------------------
# Configurations


def freeze_store(store: Mapping) -> tuple:
    """A store, or a connector's cells, as a pair tuple sorted by key."""
    return tuple(sorted(store.items()))


def freeze_astate(astate: Mapping[str, tuple[str, Mapping[str, Value]]]) -> tuple:
    return tuple(
        sorted((g, (s, tuple(sorted(mu.items())))) for g, (s, mu) in astate.items())
    )


# A frozen store, a connector's cells and the connector states are tuples of
# (key, value) pairs sorted by key.  A step reads them in place, through
# `SortedPairs`, and builds its successor's with `write_sorted` and `fire`,
# which copy only the entries it writes and share the rest.

_key = itemgetter(0)
_set = object.__setattr__  # for the frozen Configuration


def find_key(pairs: tuple, key) -> int:
    """The index of key's pair in a sorted pair tuple; KeyError if there is
    none."""
    i = bisect_left(pairs, key, key=_key)
    if i == len(pairs) or pairs[i][0] != key:
        raise KeyError(key)
    return i


class SortedPairs(Mapping):
    """A read-only mapping over a sorted pair tuple, without copying it."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple) -> None:
        self.pairs = pairs

    def __getitem__(self, key):
        return self.pairs[find_key(self.pairs, key)][1]

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def items(self) -> tuple:
        return self.pairs


def write_sorted(pairs: tuple, writes: Mapping) -> tuple:
    """pairs with writes applied: a written key's pair is replaced, or
    inserted in key order.  Without writes, pairs itself."""
    if not writes:
        return pairs
    out = list(pairs)
    for key, value in writes.items():
        i = bisect_left(out, key, key=_key)
        if i < len(out) and out[i][0] == key:
            out[i] = (key, value)
        else:
            out.insert(i, (key, value))
    return tuple(out)


def fire(astate: tuple, k: int, dst: str, mu_writes: Mapping[str, Value]) -> tuple:
    """The connector states after the k-th connector moves to state dst and
    writes mu_writes into its cells; every other entry is astate's own."""
    g, (_, cells) = astate[k]
    return astate[:k] + ((g, (dst, write_sorted(cells, mu_writes))),) + astate[k + 1 :]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Configuration:
    """One runtime state: choreography, global store, automaton states.

    The hash is the tuple hash of the three fields, worked out on first use
    and kept: a run without a seed never hashes its configurations."""

    chor: object
    sigma: tuple
    astate: tuple
    _hash: "int | None" = field(init=False, repr=False)

    def __init__(self, chor, sigma: tuple, astate: tuple) -> None:
        _set(self, "chor", chor)
        _set(self, "sigma", sigma)
        _set(self, "astate", astate)
        _set(self, "_hash", None)

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash((self.chor, self.sigma, self.astate)))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Configuration:
            return NotImplemented
        return self is other or (
            hash(self) == hash(other)
            and self.chor == other.chor
            and self.sigma == other.sigma
            and self.astate == other.astate
        )

    @staticmethod
    def make(
        chor,
        sigma: Mapping[tuple[str, str], Value],
        astate: Mapping[str, tuple[str, Mapping[str, Value]]],
    ) -> "Configuration":
        return Configuration(chor, freeze_store(sigma), freeze_astate(astate))

    def sigma_map(self) -> dict[tuple[str, str], Value]:
        return dict(self.sigma)

    def astate_map(self) -> dict[str, tuple[str, dict[str, Value]]]:
        return {g: (s, dict(cells)) for g, (s, cells) in self.astate}


def initial_configuration(program) -> Configuration:
    """Build the starting configuration of a parsed program.  A Python bool
    in its store or cells is an InputError (see `core.check_value`)."""
    astate = {
        g: (a.init_state, a.init_mem_map()) for g, a in program.connectors.items()
    }
    for v in chain(program.init_sigma.values(), *(mu.values() for _, mu in astate.values())):
        check_value(v)
    return Configuration.make(normalize(program.main), program.init_sigma, astate)


# ---------------------------------------------------------------------------
# Structural normalisation (garbage collection of finished prefixes and defs)


def normalize(c):
    """Drop empty interaction sets and defs whose scope has ended.

    A term whose `normal` flag is set comes back as it is.  Otherwise only
    the part above its first normal node is rebuilt, in a loop along the
    prefix spine."""
    if c.normal:
        return c
    spine: list[Prefix] = []
    while isinstance(c, Prefix) and not c.normal:
        spine.append(c)
        c = c.cont
    if isinstance(c, Cond) and not c.normal:
        c = Cond(c.process, c.guard, normalize(c.then_branch), normalize(c.else_branch))
    elif isinstance(c, Def) and not c.normal:
        body = normalize(c.body)
        cont = normalize(c.cont)
        c = END if isinstance(cont, End) else Def(c.name, body, cont)
    for p in reversed(spine):
        if p.etas:
            c = Prefix(p.etas, p.connector, c)
    return c


def is_terminated(cfg: Configuration) -> bool:
    return isinstance(normalize(cfg.chor), End)


# ---------------------------------------------------------------------------
# Transition matching


def _written_before(seed: str, mm: tuple[Flow, ...]) -> set[str]:
    """Cells that are necessarily written before a delivery whose deposit
    wrote `seed` can read.  A cell-to-cell move reading such a cell must run
    even earlier than the writer, so its own target joins the set."""
    out = {seed}
    while True:
        grow = {f.dst.name for f in mm if f.src.name in out} - out
        if not grow:
            return out
        out |= grow


def mem_cycle(mm: list[Flow]) -> bool:
    """A cell-to-cell move must read its source before anything overwrites it;
    detect when no such order exists."""
    edges: dict[int, list[int]] = {i: [] for i in range(len(mm))}
    for i, f in enumerate(mm):
        for j, g in enumerate(mm):
            if i != j and f.src == g.dst:
                edges[i].append(j)  # f must run before g
    state = [0] * len(mm)

    def visit(i: int) -> bool:
        state[i] = 1
        for j in edges[i]:
            if state[j] == 1:
                return True
            if state[j] == 0 and visit(j):
                return True
        state[i] = 2
        return False

    return any(state[i] == 0 and visit(i) for i in range(len(mm)))


@lru_cache(maxsize=8192)
def _phi_parts(phi: Constraint):
    """Split a constraint's flows by endpoint kinds, once per constraint.
    The cell-to-cell moves come self-copies first."""
    flows = phi.sorted_flows()
    pp = tuple(f for f in flows if isinstance(f.src, Port) and isinstance(f.dst, Port))
    pm = tuple(f for f in flows if isinstance(f.src, Port) and isinstance(f.dst, Mem))
    mp = tuple(f for f in flows if isinstance(f.src, Mem) and isinstance(f.dst, Port))
    mm = [f for f in flows if isinstance(f.src, Mem) and isinstance(f.dst, Mem)]
    mm.sort(key=lambda f: f.src != f.dst)
    groups: dict[str, list[Flow]] = {}
    for f in pm:
        groups.setdefault(f.src.name, []).append(f)
    pm_groups = tuple((p, tuple(groups[p])) for p in sorted(groups))
    return pp, pm_groups, mp, tuple(mm), mem_cycle(mm)


@dataclass(frozen=True, slots=True)
class _MatchPlan:
    """Which interaction each flow of a constraint serves in one interaction
    set: all of a match that does not depend on the data."""

    handovers: tuple  # value communications a port-to-port flow completes
    senders: tuple  # each depositing sender's first value communication
    moves: tuple  # (source cell, target cell), self-copies first
    claims: tuple  # (cell, datum it must hold, (receiver, variable) it is stored in or None)
    births: tuple  # (cell, sender, (receiver, variable)): same-step deliveries of a deposit
    deposits: tuple  # (cell, sender, communication left pending or None), or (cell, None, label)
    rest: frozenset  # the residual set, but for the receives of deposited values


@lru_cache(maxsize=8192)
def _match_plan(etas: frozenset[Interaction], phi: Constraint) -> "_MatchPlan | str":
    """phi's flows assigned to the interactions of etas, once per set and
    constraint, or FAIL_PORTS when some flow has no interaction in place.
    Port-to-port flows take the interaction of their receiver; a sender's
    deposits take its interactions in canonical order, cycling through its
    flows; a delivery from a cell takes its receiver's pending receive, or
    else that receiver's interaction deposited in this very step, from a
    cell that no write of the step comes before (see `match_constraint`)."""
    pp, pm_groups, mp, mm, cyclic = _phi_parts(phi)
    if cyclic:
        return FAIL_PORTS
    by_receiver = {eta.receiver: eta for eta in etas}
    consumed: set[Interaction] = set()
    handovers = []
    for f in pp:
        eta = by_receiver.get(f.dst.name)
        if (
            eta is None
            or eta in consumed
            or not isinstance(eta, (ValCom, Sel))
            or eta.sender != f.src.name
        ):
            return FAIL_PORTS
        consumed.add(eta)
        if isinstance(eta, ValCom):
            handovers.append(eta)
    pm_assign: list[tuple[str, Interaction]] = []  # (cell, eta)
    ordered = sorted_etas(etas) if pm_groups else ()
    for p, group in pm_groups:
        avail = [eta for eta in ordered if sender_of(eta) == p and eta not in consumed]
        if not avail or len(avail) < len(group):
            return FAIL_PORTS
        for i, eta in enumerate(avail):
            consumed.add(eta)
            pm_assign.append((group[i % len(group)].dst.name, eta))
    claims, births = [], []
    born: set[Interaction] = set()
    for f in mp:
        eta = by_receiver.get(f.dst.name)
        if eta is None:
            return FAIL_PORTS
        if eta not in consumed and isinstance(eta, (RecvVal, RecvSel)):
            consumed.add(eta)
            if isinstance(eta, RecvVal):
                claims.append((f.src.name, eta.value, (eta.receiver, eta.var)))
            else:
                claims.append((f.src.name, Label(eta.label), None))
            continue
        birth = next((cell for cell, be in pm_assign if be is eta), None)
        if birth is None or eta in born:
            return FAIL_PORTS
        if f.src.name in _written_before(birth, mm):
            return FAIL_PORTS
        born.add(eta)
        if isinstance(eta, ValCom):
            births.append((f.src.name, eta.sender, (eta.receiver, eta.var)))
        else:
            claims.append((f.src.name, Label(eta.label), None))
    senders: dict[str, ValCom] = {}
    deposits = []
    pending_labels = []
    for cell, eta in pm_assign:
        if isinstance(eta, ValCom):
            senders.setdefault(eta.sender, eta)
            deposits.append((cell, eta.sender, None if eta in born else eta))
        else:
            deposits.append((cell, None, Label(eta.label)))
            if eta not in born:
                pending_labels.append(RecvSel(eta.receiver, eta.label))
    return _MatchPlan(
        tuple(handovers),
        tuple(senders.values()),
        tuple((f.src.name, f.dst.name) for f in mm),
        tuple(claims),
        tuple(births),
        tuple(deposits),
        (etas - consumed).union(pending_labels),
    )


def match_constraint(
    etas: frozenset[Interaction],
    phi: Constraint,
    mu: MemorySnapshot,
    sigma: "Mapping[tuple[str, str], Value] | None" = None,
    fresh: "Callable[[str], Value] | None" = None,
):
    """Shared matcher for the concrete and the symbolic semantics.

    Returns (residual etas, sigma writes, mu writes) on success or a failure
    stage (FAIL_PORTS / FAIL_VALUE) otherwise.  Which interaction each flow
    serves, and so a FAIL_PORTS, depends only on etas and phi, and is worked
    out once per set and constraint (`_match_plan`); a step checks the data
    premises and builds its writes and residual by value.  All reads, both
    of the store and of memory cells, see the pre-state: a constraint orders
    every read of a cell before any write to it, so a constraint that would
    need to read its own output does not fire.

    Two ordering subtleties.  First, a communication deposited into one cell
    by this very constraint can also be delivered by it, through a second
    cell that already holds an equal value: the deposit runs first, then the
    delivery reads the other cell.  The delivery may not read the deposit's
    own cell, nor any cell written by a move forced to run before it.
    Second, when several flows write one cell, a self-copy (m to m) must run
    before the other writers, because it reads the cell it writes; the cell
    ends up holding another writer's value.
    """
    plan = _match_plan(etas, phi)
    if plan is FAIL_PORTS:
        return FAIL_PORTS

    # one datum per sender and step, shared by all of its deposits
    data: dict[str, Value] = {}
    for eta in plan.senders:
        p = eta.sender
        data[p] = fresh(p) if sigma is None else eval_expr(eta.expr, sigma, p)

    # data premises against the pre-state
    for src, _ in plan.moves:
        if mu[src] is BOT:
            return FAIL_VALUE
    for cell, expected, _ in plan.claims:
        if mu[cell] != expected:
            return FAIL_VALUE
    for cell, sender, _ in plan.births:
        if mu[cell] != data[sender]:
            return FAIL_VALUE

    # effects; self-copies first so another writer to the same cell wins
    mu_writes: dict[str, Value] = {}
    for src, dst in plan.moves:
        mu_writes[dst] = mu[src]
    sigma_writes: dict[tuple[str, str], Value] = {}
    if sigma is not None:
        for eta in plan.handovers:
            sigma_writes[(eta.receiver, eta.var)] = eval_expr(eta.expr, sigma, eta.sender)
        for _, v, key in plan.claims:
            if key is not None:
                sigma_writes[key] = v
    pending = []
    for cell, sender, x in plan.deposits:
        if sender is None:
            mu_writes[cell] = x
        else:
            v = mu_writes[cell] = data[sender]
            if x is not None:
                pending.append(RecvVal(x.receiver, x.var, v))
    if sigma is not None:
        for _, sender, key in plan.births:
            sigma_writes[key] = data[sender]
    return (plan.rest.union(pending) if pending else plan.rest, sigma_writes, mu_writes)


def match_transition(
    etas: frozenset[Interaction],
    phi: Constraint,
    sigma: Mapping[tuple[str, str], Value],
    mu: MemorySnapshot,
):
    """Fire phi against etas if a derivation with exactly that label exists.

    Untouched interactions stay in the residual set; touched full interactions
    either complete (port-to-port) or turn into runtime receive terms
    (port-to-cell).  Returns (etas', sigma writes, mu writes) or None: the
    step's writes alone, as dicts.
    """
    m = match_constraint(etas, phi, mu, sigma=sigma)
    return None if isinstance(m, str) else m


# ---------------------------------------------------------------------------
# Head exposures


@dataclass(slots=True)
class Exposure:
    """Something the precongruence can bring to the head: an interaction set
    on a connector, or a conditional at its deciding process.  `rebuild`
    puts the whole choreography back around the residual set, or around the
    branch taken."""

    kind: str  # "com" | "cond", as in lts.Step
    subject: str  # connector for com, deciding process for cond
    what: object  # the interaction set for com, the guard for cond
    procs: frozenset[str]  # the processes it involves
    rebuild: Callable[[object], object]

    def wrap(self, around: Callable[[object], object]) -> "Exposure":
        """The same exposure, seen one node further out; `around` rebuilds
        that node around the subterm."""
        rebuild = self.rebuild
        return Exposure(
            self.kind, self.subject, self.what, self.procs, lambda r: around(rebuild(r))
        )


def _set_splits(etas: frozenset[Interaction]) -> tuple[tuple[frozenset[Interaction], frozenset[str]], ...]:
    """Nonempty subsets that can be split off, with their processes.  A
    subset and its complement must not share processes, so the subsets are
    the unions of the set's process-connected parts, ordered by the bitmask
    of their members in canonical order.  Includes the full set."""
    members = sorted_etas(etas)
    parts: list[tuple[int, frozenset[str]]] = []  # (member bitmask, processes)
    for i, eta in enumerate(members):
        mask, procs = 1 << i, pn_eta(eta)
        for part in parts[:]:
            if part[1] & procs:
                parts.remove(part)
                mask, procs = mask | part[0], procs | part[1]
        parts.append((mask, procs))
    if len(parts) < 2:  # a connected set splits off only as a whole
        return tuple((etas, procs) for _, procs in parts)
    unions: list[tuple[int, frozenset[str]]] = [(0, frozenset())]
    for mask, procs in parts:
        unions += [(m | mask, p | procs) for m, p in unions]
    return tuple(
        (frozenset(eta for i, eta in enumerate(members) if mask >> i & 1), procs)
        for mask, procs in sorted(unions[1:])
    )


# A set of n independent interactions has 2^n - 1 splits, so only sets of at
# most four keep theirs between walks: 15 splits an entry at most.
_small_set_splits = lru_cache(maxsize=512)(_set_splits)


def _valid_splits(etas: frozenset[Interaction]):
    """`_set_splits`, worked out once for a small set."""
    return _small_set_splits(etas) if len(etas) <= 4 else _set_splits(etas)


def _splits(etas: frozenset[Interaction], gamma: str, cont, touching) -> Iterator[Exposure]:
    """The subsets of a set on connector gamma that can be split off and
    meet `touching`, each with the rest left in place above cont.  A set
    that the step empties rebuilds to cont itself."""
    for subset, procs in _valid_splits(etas):
        if not touching.isdisjoint(subset):
            rest = etas - subset
            yield Exposure(
                "com",
                gamma,
                subset,
                procs,
                lambda r, rest=rest: Prefix(r | rest, gamma, cont) if r or rest else cont,
            )


def prefix_splits(c: Prefix) -> Iterator[Exposure]:
    """The exposures of prefix c's own set, which `exposures` yields first."""
    return _splits(c.etas, c.connector, c.cont, c.etas)


def known_pn(c, env: Mapping, allow_unfold: bool) -> "frozenset[str] | None":
    """Every process an exposure of c that `exposures` finds can name, when
    env binds the procedures the walk may unfold at c: c's own, and those of
    each body env binds to a free call of c, or of a body so reached.  None
    when one of those calls is not bound in env.  Without unfolding, c's
    own processes."""
    procs = c.procs
    if not allow_unfold or not c.calls:
        return procs
    reached, todo = set(c.calls), list(c.calls)
    while todo:
        body = env.get(todo.pop())
        if body is None:
            return None
        if not body.procs <= procs:
            procs = procs | body.procs
        for name in body.calls:
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return procs


def exposures(
    c,
    env: dict,
    unfolded: frozenset,
    allow_unfold: bool,
    above: frozenset = frozenset(),
    blocked: frozenset = frozenset(),
) -> Iterator[Exposure]:
    """Com and cond exposures of c, each kind in enumeration order, found as
    they are asked for: a prefix's own splits before anything below it, and
    under a conditional the else branch walked only once a then exposure
    needs its partner.  `above` holds the processes of the nearest enclosing
    prefix, `blocked` those of the two nearest."""
    while isinstance(c, Call):  # unfolded in place, without a frame per call
        if not (allow_unfold and c.name in env and c.name not in unfolded):
            return
        c, unfolded = env[c.name], unfolded | {c.name}
    if isinstance(c, End):
        return
    if isinstance(c, Prefix):
        # Skip c when the processes of the two nearest enclosing prefixes,
        # P1 and P2, cover all of c's: nothing in c can reach the head then,
        # so on a chain the walk, and a step, cost O(1) in the length of the
        # rest of the term.  This is exact.  An exposure E from c passes P1
        # only if pn(E) is disjoint from pn(P1), so pn(E) lies within pn(P2).
        # At P1 it passes as it is, or, on P1's connector, merges into a set
        # that keeps at least one member of E.  Either way P2 blocks it,
        # before any merge there.  A cond exposure's process lies in pn(c)
        # and is blocked the same way.  Covering by all enclosing prefixes
        # would not be exact: a second merge, at P2, may keep only members
        # of P1, and then nothing above need block the set.  `known_pn`
        # holds every process an exposure from c can name.  With no free
        # call in c, each call the walk unfolds below c is bound by a def
        # inside c: the walk passed that def, or unfolded the body holding
        # it, before it met the call.  So every set and guard it exposes
        # lies in c.procs.  A free call of c unfolds the body env binds,
        # and the walk resolves that body's own free calls through env as
        # well; a def it passes on the way binds a body that lies in c or
        # in a body already counted.  So when env binds every call so
        # reached, the exposures lie in c.procs and the procs of those
        # bodies.  A walk that unfolds nothing exposes only what c.procs
        # holds.  On a loop `def X = B in ...; X` the walk thus stops below
        # the second prefix too, and does not unfold B again.
        etas, gamma, cont = c.etas, c.connector, c.cont
        my_pn = pn_etas(etas)
        if my_pn <= blocked:  # only then can the whole of c be covered
            procs = known_pn(c, env, allow_unfold)
            if procs is not None and procs <= blocked:
                return
        yield from prefix_splits(c)
        for ex in exposures(cont, env, unfolded, allow_unfold, my_pn, my_pn | above):
            if ex.procs & my_pn:
                continue  # blocked by this prefix
            if ex.kind == "com" and ex.subject == gamma:  # merge, then split again
                yield from _splits(
                    etas | ex.what, gamma, normalize(ex.rebuild(frozenset())), ex.what
                )
            else:
                yield ex.wrap(lambda t: Prefix(etas, gamma, t))
        return
    if isinstance(c, Cond):
        yield Exposure(
            "cond",
            c.process,
            c.guard,
            frozenset({c.process}),
            lambda b: c.then_branch if b else c.else_branch,
        )
        else_exps = None
        for x1 in exposures(c.then_branch, env, unfolded, allow_unfold, above, blocked):
            if c.process in x1.procs:
                continue
            if else_exps is None:
                else_exps = list(
                    exposures(c.else_branch, env, unfolded, allow_unfold, above, blocked)
                )
            for x2 in else_exps:
                if x1.kind == x2.kind and x1.subject == x2.subject and x1.what == x2.what:
                    yield Exposure(
                        x1.kind,
                        x1.subject,
                        x1.what,
                        x1.procs,
                        lambda r, r1=x1.rebuild, r2=x2.rebuild: Cond(
                            c.process, c.guard, r1(r), r2(r)
                        ),
                    )
        return
    assert isinstance(c, Def)
    env2 = dict(env)
    env2[c.name] = c.body
    for ex in exposures(c.cont, env2, unfolded, allow_unfold, above, blocked):
        yield ex.wrap(lambda t: Def(c.name, c.body, t))


def head_exposures(c, unfold: bool = True) -> list[Exposure]:
    """Every interaction set the precongruence can bring to the head, as the
    com exposures of c."""
    return [ex for ex in exposures(normalize(c), {}, frozenset(), unfold) if ex.kind == "com"]


# ---------------------------------------------------------------------------
# Reductions and runs


def iter_reductions(
    cfg: Configuration, g: ConnectorMapping, memo: "lts.StepMemo | None" = None
) -> Iterator[Step]:
    """Every one-step successor, deterministically ordered and deduplicated,
    built as it is asked for: the com steps of each exposure as the walk
    finds it, then the cond steps of the cond exposures it passed.  A
    successor shares with cfg its store when the step writes none, and the
    state of every connector but the fired one.

    With a memo, a term rooted at a def has its exposures worked out once,
    as a tuple in walk order, and each successor term once per exposure and
    residual set, or branch taken.  Any other term, and every term without
    a memo, is walked as the successors are asked for."""
    chor = normalize(cfg.chor)
    sigma, astate = cfg.sigma, cfg.astate
    store = SortedPairs(sigma)
    conds: list[Exposure] = []
    seen = lts.Seen()
    if memo is None or chor.__class__ is not Def:
        walk = exposures(chor, {}, frozenset(), True)
    else:
        walk = memo.get(chor)
        if walk is None:
            walk = memo[chor] = tuple(
                Exposure(
                    ex.kind, ex.subject, ex.what, ex.procs, lts.rebuilt_once(ex.rebuild, normalize)
                )
                for ex in exposures(chor, {}, frozenset(), True)
            )
    for ex in walk:
        if ex.kind != "com":
            conds.append(ex)
            continue
        if ex.subject not in g:
            raise InputError(f"no automaton for connector {ex.subject}")
        k = find_key(astate, ex.subject)
        state, cells = astate[k][1]
        mu = SortedPairs(cells)
        for t in g[ex.subject].outgoing(state):
            m = match_transition(ex.what, t.phi, store, mu)
            if m is None:
                continue
            residual, sigma_writes, mu_writes = m
            succ = Configuration(
                normalize(ex.rebuild(residual)),
                write_sorted(sigma, sigma_writes),
                fire(astate, k, t.dst, mu_writes),
            )
            if seen.add(("com", ex.subject, t.phi, succ)):
                yield Step("com", ex.subject, t.phi, None, state, t.dst, succ)
    for ex in conds:
        v = eval_expr(ex.what, store, ex.subject)
        if not isinstance(v, Bool):
            raise EvalError(f"guard at {ex.subject} is not a boolean: {v!r}")
        succ = Configuration(normalize(ex.rebuild(v)), sigma, astate)
        if seen.add(("cond", ex.subject, ex.what, v, succ)):
            yield Step("cond", ex.subject, None, "then" if v else "else", None, None, succ)


def reductions(
    cfg: Configuration, g: ConnectorMapping, memo: "lts.StepMemo | None" = None
) -> list[Step]:
    """All one-step successors (`iter_reductions`), as a list."""
    return list(iter_reductions(cfg, g, memo))


def run(
    cfg: Configuration,
    g: ConnectorMapping,
    max_steps: int = 1000,
    rng: "random.Random | None" = None,
) -> RunResult:
    """Drive one execution of the choreography (`lts.run`).  Without an rng
    it builds only the successor it takes, so it walks each term only as far
    as its first step, and keeps no memo."""
    return lts.run(
        cfg, lambda c: iter_reductions(c, g), lambda c: is_terminated(c), max_steps, rng
    )


def report_stuck(cfg: Configuration, g: ConnectorMapping) -> StuckReport:
    """Explain why no reduction exists: every pending transition either fails
    on shape (ports and interaction kinds) or on a stored datum.  A failure
    is listed once per connector, constraint and interaction set."""
    from .textio import pretty_constraint, pretty_eta_set  # lazy: avoid cycle at import time

    store = SortedPairs(cfg.sigma)
    failures: dict[tuple, tuple[str, str]] = {}
    for ex in head_exposures(cfg.chor):
        state, cells = cfg.astate[find_key(cfg.astate, ex.subject)][1]
        mu = SortedPairs(cells)
        for t in g[ex.subject].outgoing(state):
            stage = match_constraint(ex.what, t.phi, mu, store)
            if not isinstance(stage, str):
                continue
            key = (ex.subject, t.phi, ex.what)
            if key not in failures:
                detail = (
                    f"{ex.subject} at state {state}: {pretty_constraint(t.phi)} vs "
                    f"{pretty_eta_set(ex.what)}"
                )
                failures[key] = (detail, stage)
    return lts.stuck_report(
        failures.values(), "no pending interactions or no outgoing transitions"
    )
