"""Static compatibility checking by symbolic worklist execution, plus the
diamond confluence check on automata.

The checker walks the choreography structurally.  Communication values are
replaced by tokens, so verdicts hold for every initial store.  The n-th
datum process `a` sends on a path is `FreshToken("a", n)`, printed `#a.n`:
a process's count only grows along a path, so the tokens of one path are
distinct, and every order of the same sends makes the same tokens.  Each
procedure body is checked once from each connector state its calls enter it
with, taken at the connectors the procedure can reach and up to a consistent
renaming of tokens.  These entry states are finitely many: the connectors
have finitely many states, and their cells hold only initial constants,
labels and tokens, which the renaming numbers by first occurrence.  Apart
from those steps into bodies, the worklist always replaces an item by
strictly smaller items under the size metric `core.size`, which is asserted
on every iteration.  Together these make the check terminate, and they are
why transitions that consume no interaction (pure cell-to-cell moves) are
skipped here: the runtime permits them, but following them would not shrink
anything.  Every node works its metric out when it is built, so the
assertion reads one field.

A judgement is a procedure frame, a connector state and a choreography; the
worklist checks each distinct one once, and fires only the first prefix while
no other prefix uses its connector.  Comments at the memo and in
`_prefix_successors` say why the verdict stays the same.  Transitions are
rendered as text only for a negative verdict's report and path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .core import (
    Call,
    Cond,
    ConnectorMapping,
    Def,
    End,
    FreshToken,
    InputError,
    Interaction,
    Mem,
    MemorySnapshot,
    Port,
    Prefix,
    Transition,
    Value,
    size,
)
from .chor_engine import (
    SortedPairs,
    find_key,
    fire,
    freeze_astate,
    head_exposures,
    match_constraint,
    normalize,
    prefix_splits,
)


def abstract_match(
    etas: frozenset[Interaction],
    phi,
    mu: MemorySnapshot,
    sent: Mapping[str, int],
):
    """Value-free variant of the transition matcher: the datum a process
    sends in this step becomes a token numbered one past its count in `sent`,
    the data it has sent so far on this path.  Returns (etas', mu writes,
    sent') or None, where the writes are the step's alone, as a dict, and
    sent' is `sent` itself when the step sends nothing."""
    senders: list[str] = []

    def fresh(sender: str) -> FreshToken:
        senders.append(sender)
        return FreshToken(sender, sent.get(sender, 0) + 1)

    m = match_constraint(etas, phi, mu, sigma=None, fresh=fresh)
    if isinstance(m, str):
        return None
    out, _sigma_writes, mu_writes = m
    if senders:
        sent = {**sent, **{p: sent.get(p, 0) + 1 for p in senders}}
    return (out, mu_writes, sent)


# ---------------------------------------------------------------------------
# Judgements and verdicts


class StateVar:
    """The connector-states a procedure is entered with, at the connectors it
    can reach (`relevant`), each token-renamed by `_canon_astate`: empty until
    the first call."""

    def __init__(self, body) -> None:
        self.entries: set[tuple] = set()
        self.relevant: frozenset[str] = frozenset()
        self.body = body


@dataclass(eq=False)
class Judgement:
    gamma: tuple  # ((name, StateVar), ...) innermost last
    astate: tuple  # frozen connector states
    chor: object
    parent: "Judgement | None"
    via: "str | tuple"  # a label, or the (connector, etas, transition, state) fired

    def astate_map(self) -> dict[str, tuple[str, dict[str, Value]]]:
        return {g: (s, dict(cells)) for g, (s, cells) in self.astate}

    def path(self) -> list[str]:
        steps: list[str] = []
        j: "Judgement | None" = self
        while j is not None:
            steps.append(j.via if isinstance(j.via, str) else _describe(*j.via))
            j = j.parent
        return list(reversed(steps))


@dataclass
class CompatYes:
    judgements_checked: int

    @property
    def compatible(self) -> bool:
        return True


@dataclass
class CompatNo:
    judgement: Judgement
    reason: str
    tried: list[str]

    @property
    def compatible(self) -> bool:
        return False


Verdict = Union[CompatYes, CompatNo]


# ---------------------------------------------------------------------------
# Preconditions


def _check_defs_called(c) -> None:
    while isinstance(c, Prefix):
        c = c.cont
    if isinstance(c, Def):
        if c.name not in c.cont.calls:
            raise InputError(
                f"procedure {c.name} is never called outside its own body"
            )
        _check_defs_called(c.body)
        _check_defs_called(c.cont)
    elif isinstance(c, Cond):
        _check_defs_called(c.then_branch)
        _check_defs_called(c.else_branch)


def _relevant_connectors(body, gamma: tuple) -> frozenset[str]:
    """Connectors a procedure can ever touch: those of its body and of every
    procedure it can reach through calls."""
    out: set[str] = set()
    seen: set[str] = set()
    stack = [body]
    while stack:
        b = stack.pop()
        out |= b.conns
        for name in b.calls:
            if name in seen:
                continue
            seen.add(name)
            for gname, var in reversed(gamma):
                if gname == name and var.body is not None:
                    stack.append(var.body)
                    break
    return frozenset(out)


# ---------------------------------------------------------------------------
# Token-renaming-insensitive comparison of connector states


def _canon_astate(astate: tuple, relevant: frozenset[str]) -> tuple:
    renaming: dict[FreshToken, int] = {}

    def repl(v: Value):
        if isinstance(v, FreshToken):
            if v not in renaming:
                renaming[v] = len(renaming)
            return ("tok", renaming[v])
        return v

    out = []
    for g, (s, cells) in astate:
        if g in relevant:
            out.append((g, (s, tuple((m, repl(v)) for m, v in cells))))
    return tuple(out)


# ---------------------------------------------------------------------------
# The worklist


def check_compatibility(
    c,
    g: ConnectorMapping,
    a0: "Mapping[str, tuple[str, Mapping[str, Value]]] | None" = None,
) -> Verdict:
    """Decide whether the connectors can always serve every head rewriting of
    the choreography, symbolically.  Yes is sound for deadlock-freedom when
    the automata are confluent; No does not imply a deadlock.

    Procedure calls are not unfolded: each procedure is checked once from
    each connector state its calls enter it with, at the connectors the
    procedure can reach and up to a renaming of tokens.  The body fires only
    those, so connectors it cannot reach make no new entry state.
    """
    c = normalize(c)
    _check_defs_called(c)
    missing = sorted(c.conns - set(g))
    if missing:
        raise InputError("undefined connectors: " + ", ".join(missing))
    if a0 is None:
        a0 = {name: (a.init_state, a.init_mem_map()) for name, a in g.items()}
    root = freeze_astate(a0)
    # An entry is (key, parent judgement, via, sent): the key is the judgement
    # itself, procedure frame, connector state and choreography, and `sent`,
    # the path's send counts, names the tokens made below it.  A judgement
    # whose key was checked before is skipped.  This keeps the verdict.  The
    # duplicate's path made every token of the key too, so a token made below
    # is new on both paths, and the duplicate's subtree would check the same
    # judgements as the first one's, up to a renaming of the tokens made in
    # them.  A call never fails: it pushes its procedure's body only from an
    # entry state no call brought before, and a body checked from another
    # state with the same entry state checks the same judgements up to
    # renaming, as it fires only the connectors in `relevant`.  So every
    # judgement a skipped duplicate would check is checked, up to renaming,
    # by the first subtree or by the body pushed for its entry state.  Every
    # successor but a body is strictly smaller (asserted below), and a body is
    # pushed once per entry state of its procedure, so the check terminates
    # without the memo too.  A body may be pushed again beneath itself, from
    # another entry state, and then a key can recur in its own subtree before
    # that subtree is done: a No may then report another failing judgement,
    # or another path to it, than the check without the memo.  On every
    # fixture the reports agree, and only the count of judgements falls.  The
    # frame holds the StateVar objects themselves, never their ids, which a
    # freed one can hand on.
    worklist: list[tuple] = [(((), root, c), None, "start", {})]
    visited: set[tuple] = set()
    checked = 0
    while worklist:
        key, parent, via, sent = worklist.pop()
        if key in visited:
            continue
        visited.add(key)
        gamma, astate, ch = key
        j = Judgement(gamma, astate, ch, parent, via)
        checked += 1
        if isinstance(ch, End):
            continue
        if isinstance(ch, Call):
            for i in range(len(gamma) - 1, -1, -1):
                if gamma[i][0] == ch.name:
                    break
            else:
                raise InputError(f"call of undefined procedure {ch.name}")
            var = gamma[i][1]
            entry = _canon_astate(astate, var.relevant)
            if entry not in var.entries:
                # the body runs from each state a call first enters it with
                var.entries.add(entry)
                key2 = (gamma[: i + 1], astate, normalize(var.body))
                if key2 not in visited:
                    worklist.append((key2, j, f"body of {ch.name}", sent))
            continue
        budget = size(ch)
        if isinstance(ch, Cond):
            succs = [
                (gamma, astate, normalize(ch.then_branch), f"{ch.process}: then branch", sent),
                (gamma, astate, normalize(ch.else_branch), f"{ch.process}: else branch", sent),
            ]
        elif isinstance(ch, Def):
            var = StateVar(ch.body)
            gamma2 = gamma + ((ch.name, var),)
            var.relevant = _relevant_connectors(ch.body, gamma2)
            succs = [(gamma2, astate, normalize(ch.cont), f"after def {ch.name}", sent)]
        else:
            assert isinstance(ch, Prefix)
            succs, tried = _prefix_successors(j, g, sent)
            if not succs:
                return CompatNo(
                    j,
                    "no connector transition can serve any head interaction set",
                    [_describe(*attempt) + ": no match" for attempt in tried],
                )
        pushes = []
        for gamma2, astate2, chor2, via2, sent2 in succs:
            assert size(chor2) < budget
            key2 = (gamma2, astate2, chor2)
            if key2 not in visited:
                pushes.append((key2, j, via2, sent2))
        worklist.extend(reversed(pushes))
    return CompatYes(checked)


def _prefix_successors(j: Judgement, g: ConnectorMapping, sent: Mapping[str, int]):
    """The (gamma, astate, chor, via, sent) successors of a prefix judgement
    reached with send counts `sent`, one for every connector transition that
    serves a head interaction set, and every attempt as (connector, etas,
    transition, state).  A successor's `via` is its attempt, rendered only
    when a path is read."""
    # While no other prefix uses the head's connector g, follow only the
    # head's own sets if g serves one (a persistent set, Godefroid 1996).
    # Exact: (1) only the head's sets touch g, as none can merge; (2) any
    # other exposure has passed the head, so shares no process with it, uses
    # another connector and commutes with each head step to the same key, as
    # tokens are named by sender and count; (3) so each End, Call or failing
    # judgement below, and each Cond or Def one (the head consumed), is still
    # reached by a head step; (4) head steps come first and are popped first,
    # and a failing judgement, with no head step, lists every attempt.
    ch, astate = j.chor, j.astate
    for head_only in (ch.connector not in ch.cont.conns, False):
        succs: list[tuple] = []
        tried: list[tuple] = []
        for ex in prefix_splits(ch) if head_only else head_exposures(ch, unfold=False):
            k = find_key(astate, ex.subject)
            state, cells = astate[k][1]
            mu = SortedPairs(cells)
            for t in g[ex.subject].outgoing(state):
                if all(not isinstance(f.src, Port) and not isinstance(f.dst, Port) for f in t.phi.flows):
                    continue  # consumes nothing; see module docstring
                m = abstract_match(ex.what, t.phi, mu, sent)
                attempt = (ex.subject, ex.what, t, state)
                tried.append(attempt)
                if m is None:
                    continue
                residual, mu_writes, sent2 = m
                astate2 = fire(astate, k, t.dst, mu_writes)
                succs.append((j.gamma, astate2, normalize(ex.rebuild(residual)), attempt, sent2))
        if succs or not head_only:
            return succs, tried


def _describe(connector: str, etas, t: Transition, state: str) -> str:
    from .textio import pretty_constraint, pretty_eta_set

    return (
        f"{connector} {state}->{t.dst} on {pretty_constraint(t.phi)}"
        f" vs {pretty_eta_set(etas)}"
    )


# ---------------------------------------------------------------------------
# Confluence


@dataclass
class ConfluenceVerdict:
    confluent: bool
    witness: "tuple[Transition, Transition] | None"

    def __bool__(self) -> bool:
        return self.confluent


def check_confluence(a) -> ConfluenceVerdict:
    """Diamond check: any two distinct moves from one state can be completed,
    by at most one further move each, to a common state with the same overall
    effect on memory.  The effect comparison is symbolic: a port contributes
    the same datum at its n-th firing along either completion path.

    A False verdict means Unknown: some pair has no one-step completion, so
    the preservation argument does not apply; the automaton may still behave
    diamond-like at greater depth.
    """
    for s in a.states:
        outs = a.outgoing(s)
        for i in range(len(outs)):
            for k in range(i + 1, len(outs)):
                if not _diamond(a, outs[i], outs[k]):
                    return ConfluenceVerdict(False, (outs[i], outs[k]))
    return ConfluenceVerdict(True, None)


def _diamond(a, t1: Transition, t2: Transition) -> bool:
    opts1 = [None] + list(a.outgoing(t1.dst))
    opts2 = [None] + list(a.outgoing(t2.dst))
    for o1 in opts1:
        for o2 in opts2:
            end1 = o1.dst if o1 else t1.dst
            end2 = o2.dst if o2 else t2.dst
            if end1 != end2:
                continue
            path1 = [t1] + ([o1] if o1 else [])
            path2 = [t2] + ([o2] if o2 else [])
            if _sym_effect(a, path1) == _sym_effect(a, path2):
                return True
    return False


def _sym_effect(a, path: list[Transition]) -> tuple:
    mem: dict[str, object] = {m: ("cell", m) for m in a.mems}
    occurrence: dict[str, int] = {}
    for t in path:
        reads = dict(mem)
        port_sym: dict[str, object] = {}
        for f in t.phi.sorted_flows():
            if isinstance(f.src, Port) and f.src.name not in port_sym:
                n = occurrence.get(f.src.name, 0)
                occurrence[f.src.name] = n + 1
                port_sym[f.src.name] = ("port", f.src.name, n)
        for f in t.phi.sorted_flows():
            if isinstance(f.dst, Mem):
                val = (
                    port_sym[f.src.name]
                    if isinstance(f.src, Port)
                    else reads[f.src.name]
                )
                mem[f.dst.name] = val
    return tuple(sorted(mem.items()))
