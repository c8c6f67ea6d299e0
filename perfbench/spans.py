"""In-memory span recorder for the traced run.

One span per call the benchmark makes into a layer's public API:
name, start, end, parent span and request id.  Spans are kept in a
list and written out once, when the run ends.  The untraced run uses
:data:`NO_SPANS`, whose ``span`` is a shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import List, Optional

from stats import Span


class _Open:
    """Context of one open span; closing stamps its end."""

    __slots__ = ("rec", "index")

    def __init__(self, rec: "SpanRecorder", index: int) -> None:
        self.rec = rec
        self.index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        rec = self.rec
        rec._stack.pop()
        name, start, _end, parent, rid = rec.spans[self.index]
        rec.spans[self.index] = (name, start, rec.clock(), parent, rid)
        return False


class SpanRecorder:
    """Collects :data:`stats.Span` tuples; nesting sets the parent.

    ``span()`` stamps the start when called and the end when its
    context exits, so little of the recorder's own cost falls between
    spans.
    """

    enabled = True

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, rid: Optional[int] = None) -> _Open:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append((name, self.clock(), 0.0, parent, rid))
        return _Open(self, index)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, s, e, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": s, "end": e,
                    "parent": parent, "request": rid,
                }) + "\n")


class _NoSpans:
    """Tracing off: every span is the same empty context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, rid: Optional[int] = None):
        return self._null


NO_SPANS = _NoSpans()


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span (tracing overhead unit)."""
    rec = SpanRecorder()
    t0 = time.monotonic()
    for _ in range(samples):
        with rec.span("x"):
            pass
    return (time.monotonic() - t0) / samples
