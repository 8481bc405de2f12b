"""Span tracing for the benchmark's traced run.

The tracer wraps, from outside the program, the names evsplat looks up at
call time (module attributes such as ``evsplat.training.render``).  Each
wrapped call records a span (name, start, end, parent) in memory; the spans
are written out once, when the run ends.

Steps are the unit the per-layer figures are taken over: one training
iteration, or one view of the large-scene loop.  A step runs from one call of
the step boundary to the next.  Spans are recorded in every other step (even
training iterations, alternate rounds of views), so the other steps of the
same run time the same work untraced and give the tracing overhead.  Work
counters run in every step.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.steps: list[tuple[int, float, int]] = []   # (step number, start, span index or -1)
        self.recording = False
        self.counting = False
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def step(self, record: bool | None = None) -> None:
        """Close the current step and open the next, which records spans if
        ``record`` is true; by default even steps record."""
        self.end_steps()
        number = len(self.steps) + 1
        self.recording = number % 2 == 0 if record is None else record
        idx = self._open("step") if self.recording else -1
        self.steps.append((number, time.perf_counter(), idx))

    def end_steps(self) -> None:
        if self.stack and self.spans[self.stack[0]][0] == "step":
            while self.stack:
                self._close(self.stack[-1])
        self.recording = False

    def wrap(self, owner, attr: str, span: str, after=None, step: bool = False) -> None:
        """Replace owner.attr by a recording wrapper; a missing name is
        reported as absent.  ``after(result, *args, **kwargs)`` runs on every
        call while counting is on.  With ``step``, each call first starts a
        new step."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(span)
            return

        def wrapper(*args, **kwargs):
            if step:
                self.step()
            if self.recording:
                idx = self._open(span)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._close(idx)
            else:
                result = orig(*args, **kwargs)
            if after is not None and self.counting:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------ reports

    def _children(self) -> dict[int, list[int]]:
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            kids[s[3]].append(i)
        return kids

    def _root_step(self) -> list[int]:
        """For each span, the index of its enclosing step span, or -1."""
        root = [-1] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[0] == "step":
                root[i] = i
            elif s[3] >= 0:
                root[i] = root[s[3]]
        return root

    def step_times(self, exclude: set[int]) -> tuple[list[float], list[float]]:
        """Durations (ms) of recorded and unrecorded steps, minus ``exclude``.

        A step's duration runs from its boundary to the next one, so the last
        step, which has no following boundary, is left out."""
        traced, untraced = [], []
        for (number, start, idx), (_, nxt, _) in zip(self.steps, self.steps[1:]):
            if number in exclude:
                continue
            (traced if idx >= 0 else untraced).append((nxt - start) * 1e3)
        return traced, untraced

    def layer_times(self, exclude: set[int]) -> dict[str, dict]:
        """Per span name: median over recorded steps not in ``exclude`` of its
        inclusive and self time in the step (ms), median time per call in any
        recorded step (ms), and total seconds outside every step."""
        kids = self._children()
        root = self._root_step()
        step_number = {idx: number for number, _, idx in self.steps if idx >= 0}
        per_step = defaultdict(lambda: defaultdict(float))
        self_step = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(list)
        outside = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            own = dur - sum(self.spans[k][2] - self.spans[k][1] for k in kids[i])
            r = root[i]
            if r < 0:
                outside[name] += dur
                continue
            calls[name].append(dur * 1e3)
            if step_number[r] in exclude:
                continue
            per_step[name][r] += dur * 1e3
            self_step[name][r] += own * 1e3
        recorded = [idx for number, _, idx in self.steps[:-1]
                    if idx >= 0 and number not in exclude]

        def median_over_steps(table):
            return statistics.median(table.get(r, 0.0) for r in recorded) if recorded else 0.0

        names = set(per_step) | set(outside) | set(calls)
        return {name: {"step_ms": median_over_steps(per_step[name]),
                       "self_step_ms": median_over_steps(self_step[name]),
                       "call_ms": statistics.median(calls[name]) if calls[name] else 0.0,
                       "outside_s": outside.get(name, 0.0)}
                for name in names}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "absent": self.absent,
                       "counts": dict(self.counts)}, f)
