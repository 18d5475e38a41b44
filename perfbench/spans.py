"""Outside-in span tracing of warpcurve's modules.

The tracer replaces module and class attributes that the library looks up
at call time (``solver._evaluate``, ``curvature.f_eval``,
``spla.spsolve``, ...) with wrappers that record one span per call:
(name, start, end, parent, run id).  Spans stay in memory and are written
out once, when the run ends.  Nothing under ``src/`` changes; the wrappers
exist only between ``install()`` and ``uninstall()`` in a traced process.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Span recorder plus the counters read off call arguments and results."""

    def __init__(self, targets):
        # targets: (owner, attribute, span name, hook or None); a hook is
        # called as hook(tracer, args, result, exc) after every call
        self.targets = targets
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.run_id = None
        self._stack = []
        self._saved = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1,
                           self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._close(idx)
                if hook is not None:
                    hook(self, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in self.targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def parent_name(self):
        """Name of the innermost open span; in a hook, the caller's span."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def add(self, key, value):
        self.counts[self.run_id][key] += value

    def peak(self, key, value):
        bucket = self.counts[self.run_id]
        bucket[key] = max(bucket[key], value)

    def write(self, path):
        with gzip.open(path, "wt") as f:
            for sp in self.spans:
                f.write(json.dumps(
                    {"name": sp[NAME], "start": sp[START], "end": sp[END],
                     "parent": sp[PARENT], "run": sp[RUN]}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of its children.

    Child intervals are clipped to the parent's interval and merged
    before they are subtracted, so overlapping children count once.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    out = []
    for i, sp in enumerate(spans):
        lo, hi = sp[START], sp[END]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


def aggregate(spans):
    """Self time, inclusive time and call count per run id and span name.

    Inclusive time counts only outermost spans of a name, so a re-entrant
    call is not counted twice.
    """
    selfs = self_times(spans)
    runs = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for i, sp in enumerate(spans):
        entry = runs[sp[RUN]][sp[NAME]]
        entry[0] += selfs[i]
        entry[2] += 1
        p = sp[PARENT]
        while p >= 0 and spans[p][NAME] != sp[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            entry[1] += sp[END] - sp[START]
    return {run: {name: {"self": s, "incl": t, "calls": c}
                  for name, (s, t, c) in names.items()}
            for run, names in runs.items()}
