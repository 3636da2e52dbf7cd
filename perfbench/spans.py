"""In-memory span recorder and outside-in instrumentation of optshare.

The traced run wraps each layer's public entry points at the names their
callers bind (``optshare.harness.generate``, ``optshare.analysis.add_on``,
``multiprocessing.Pool``, ...), runs the same public entry points as the
untraced run, and restores every attribute afterwards.  Nothing in the
program itself is edited.  A span is named after the module that defines
the callee (its layer), so ``add_on`` is one span whichever module called it.

Spans live in one list in start order and are written out only when the run
ends.  Each records its name, start, end, parent span and game id.  Work done
inside pool worker processes is not collected: a worker's recorder is a
forked copy that is never read back.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    game: object  # game the span worked on, None when not attributable


# Game handling per site: "set" derives the game id from the call's
# arguments, "clear" marks glue that works across games, None inherits the
# game most recently set (the mechanisms and scorers that follow a
# generate call in the same trial).
SITES = (
    # span name, object whose attribute the callers bind, attribute, game
    ("harness.run_experiment", "optshare.harness", "run_experiment", "clear"),
    ("harness.sweep", "optshare.harness", "sweep", "clear"),
    ("harness.run_mechanism", "optshare.harness", "run_mechanism", None),
    ("harness.CellStats.add", "optshare.harness:CellStats", "add", "clear"),
    ("harness.cells_to_csv", "optshare.harness", "cells_to_csv", "clear"),
    ("harness.pool.start", "multiprocessing", "Pool", "clear"),
    ("scenarios.generate", "optshare.harness", "generate", "set"),
    ("regret.regret_run", "optshare.harness", "regret_run", None),
    ("regret.optimal_posted_price", "optshare.regret", "optimal_posted_price", None),
    ("additive_online.add_on", "optshare.harness", "add_on", None),
    ("additive_online.add_on", "optshare.analysis", "add_on", None),
    ("additive_online.add_on", "optshare.verification", "add_on", None),
    ("additive_online.step_session", "optshare.verification", "step_session", None),
    ("substitutable.subst_on", "optshare.harness", "subst_on", None),
    ("substitutable.subst_on", "optshare.analysis", "subst_on", None),
    ("substitutable.subst_on", "optshare.verification", "subst_on", None),
    ("substitutable.subst_off", "optshare.analysis", "subst_off", None),
    ("substitutable.subst_off", "optshare.verification", "subst_off", None),
    ("shapley.shapley", "optshare.shapley", "shapley", None),
    ("shapley.shapley", "optshare.analysis", "shapley", None),
    ("shapley.shapley", "optshare.verification", "shapley", None),
    ("shapley.add_off", "optshare.analysis", "add_off", None),
    ("shapley.add_off", "optshare.verification", "add_off", None),
    ("shapley.common_scale", "optshare.shapley", "common_scale", None),
    ("shapley.common_scale", "optshare.additive_online", "common_scale", None),
    ("shapley.common_scale", "optshare.substitutable", "common_scale", None),
    ("shapley.common_scale", "optshare.regret", "common_scale", None),
    ("analysis.score_additive_online", "optshare.harness", "score_additive_online", None),
    ("analysis.score_subst_online", "optshare.harness", "score_subst_online", None),
    ("analysis.deviation_search", "optshare.verification", "deviation_search", "set"),
    ("verification.run_suite", "optshare.verification", "run_suite", "clear"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SITES))


class Recorder:
    """Collects spans from wrapped callables, in memory, in start order."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.game = None
        self.game_bids: dict[object, int] = {}  # searched game id -> its bid count
        self._stack: list[int] = []
        self._last_game = None  # keeps the object alive so ids stay distinct

    def game_of(self, name: str, args):
        """Game id for a "set" site: (seed, trial, cost) for a generated game,
        (mechanism, n) for the n-th distinct game a deviation search sees."""
        if name == "scenarios.generate":
            spec, trial = args
            return (spec.seed, trial, spec.cost)
        mechanism, game = args[0], args[1]
        if game is not self._last_game:
            self._last_game = game
            key = (mechanism, len(self.game_bids))
            self.game_bids[key] = len(game.bids)
            self.game = key
        return self.game

    def wrap(self, name: str, fn, game=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if game == "set":
                self.game = self.game_of(name, args)
            elif game == "clear":
                self.game = None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, clock(), parent, self.game)
                stack.pop()

        return wrapper


def _owner(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


@contextmanager
def instrumented(recorder: Recorder):
    """Wrap every site for the duration of the block, then put each
    original attribute back, so code run afterwards is uninstrumented."""
    patched = []
    try:
        for name, owner_path, attr, game in SITES:
            owner = _owner(owner_path)
            original = vars(owner)[attr]
            setattr(owner, attr, recorder.wrap(name, original, game))
            patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = children.get(i)
        out.append(s.end - s.start - (covered(kids, s.start, s.end) if kids else 0.0))
    return out


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def span_metrics(spans, names=SPAN_NAMES) -> dict[str, float]:
    """Per span name: calls, busy_s (union of its intervals), self_s, p50_us
    and p99_us (0 for a span that never ran)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {n: [] for n in names}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out: dict[str, float] = {}
    for name, idx in by_name.items():
        intervals = [(spans[i].start, spans[i].end) for i in idx]
        durations = sorted((b - a) * 1e6 for a, b in intervals)
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.busy_s"] = covered(intervals, -math.inf, math.inf)
        out[f"{name}.self_s"] = sum(selfs[i] for i in idx)
        out[f"{name}.p50_us"] = nearest_rank(durations, 0.50) if durations else 0.0
        out[f"{name}.p99_us"] = nearest_rank(durations, 0.99) if durations else 0.0
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span: index, name, start, end, parent, game."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart\tend\tparent\tgame\n")
        for i, s in enumerate(spans):
            game = "" if s.game is None else "/".join(map(str, s.game))
            fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{game}\n")
