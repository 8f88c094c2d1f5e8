"""In-memory span recorder for the traced benchmark run.

Spans are opened around the module-level names that nmfkit's own modules
call (e.g. `solvers.gram`), so no code under `src/` changes. Patches are
applied only for the duration of a traced pass and then undone, so
untraced passes run the program's original functions.

A span is [name, start, end, parent index, job id, info]; `info` holds the
per-call quantity a layer metric needs (RHS count, modelled flops, ...).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None

    def _open(self, name: str, info) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, info])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        """fn wrapped in a span; info(*args, **kwargs) is evaluated before the call."""

        def traced(*args, **kwargs):
            idx = self._open(name, info(*args, **kwargs) if info else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def patched(self, patches):
        """Install span wrappers for (module, attribute, span name, info) entries."""
        saved = []
        try:
            for module, attr, name, info in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, info in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                if info is not None:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]: duration minus the durations of direct children.

    Children never overlap their siblings (one thread), so subtracting their
    durations is the same as subtracting the part of the interval they cover.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            child[parent - lo] += spans[i][2] - spans[i][1]
    return [spans[i][2] - spans[i][1] - child[i - lo] for i in range(lo, hi)]
