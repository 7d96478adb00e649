"""Spans and counters around choreo's public functions, added from outside.

`Tracer.install` replaces each traced function, in every choreo module that
holds it, by a wrapper that records a span: its name, start, end and the
span open around it.  A name's self time is the time of its spans minus the
time of the wrapped calls inside them.  Recursive functions record only the
outermost call.  Garbage collector pauses come from `gc.callbacks`.

Counters and self times restart with every round; spans are kept for the
whole run and written out at the end.
"""

from __future__ import annotations

import functools
import gc
import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from choreo import chor_engine, compat, cp_engine, epp, harness, textio

# (module, function, span name, success test for a hit ratio, recursive)
TARGETS = (
    (textio, "parse_program", "textio.parse", None, False),
    (textio, "parse_cp", "textio.parse", None, False),
    (textio, "pretty_cp", "textio.print", None, False),
    (chor_engine, "run", "chor_engine.run", None, False),
    (chor_engine, "reductions", "chor_engine.reductions", None, False),
    (chor_engine, "normalize", "chor_engine.normalize", None, True),
    (chor_engine, "match_transition", "chor_engine.match", lambda r: r is not None, False),
    (compat, "check_compatibility", "compat.check", None, False),
    (compat, "abstract_match", "compat.abstract_match", lambda r: r is not None, False),
    (epp, "project_network", "epp.project_network", None, False),
    (epp, "project_connectors", "epp.project_connectors", None, False),
    (cp_engine, "cp_run", "cp_engine.run", None, False),
    (cp_engine, "cp_reductions", "cp_engine.reductions", None, False),
    (cp_engine, "cp_match_transition", "cp_engine.match", lambda r: not isinstance(r, str), False),
    (cp_engine, "normalize_network", "cp_engine.normalize_network", None, False),
    (cp_engine, "pruning_leq", "cp_engine.pruning_leq", None, False),
    (harness, "exhaustive_explore", "harness.explore", None, False),
    (harness, "correspondence_check", "harness.correspond", None, False),
)


class Tracer:
    def __init__(self) -> None:
        # one slot per span, indexed by its id; arrays keep a million spans
        # in some 20 MB
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # open spans: [id, time of wrapped calls inside]
        self._inside: Counter = Counter()  # open calls per recursive name
        self._patched: list[tuple] = []
        self._gc_start = 0.0
        self.paused = False
        self.begin_round()

    # -- rounds -----------------------------------------------------------

    def begin_round(self) -> None:
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, start: float) -> list:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.span_start), 0.0]
        self.span_name.append(self._name_ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        self.span_end[frame[0]] = end
        dur = end - start
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str, fn, *args):
        """Run fn(*args) as one span of its own; used for the measurements
        the benchmark makes itself."""
        start = perf_counter()
        frame = self._open(name, start)
        try:
            return fn(*args)
        finally:
            self._close(name, frame, start, perf_counter())

    def _wrap(self, fn, name: str, hit, recursive: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused or (recursive and self._inside[name]):
                return fn(*args, **kwargs)
            if recursive:
                self._inside[name] += 1
            start = perf_counter()
            frame = self._open(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, perf_counter())
                if recursive:
                    self._inside[name] -= 1
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("choreo.")]
        for owner, attr, name, hit, recursive in TARGETS:
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, hit, recursive)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        tracer = self

        class CountedJudgement(compat.Judgement):
            def __init__(self, *args, **kwargs) -> None:
                tracer.calls["compat.judgements"] += 1
                super().__init__(*args, **kwargs)

        self._patched.append((compat, "Judgement", compat.Judgement))
        compat.Judgement = CountedJudgement
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_start

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Gzipped CSV, one line per span: id, parent id (-1 for none),
        name, start and end in seconds of the process's perf_counter."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (n, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{sid},{parent},{self.names[n]},{start:.9f},{end:.9f}\n")
