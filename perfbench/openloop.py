"""Load from one single-threaded generator: open loop and closed loop.

Open loop: frames are released on a piecewise fixed-rate schedule
whatever the system does, submitted with their scheduled release time
as the arrival stamp, and the generator pumps and polls the system in the
gaps.  A frame's latency is the generator's ``poll()`` return time minus
its scheduled release, so a stall that delays later releases is
charged to them.

Closed loop: a fixed number of frames per class is kept outstanding;
each returned frame releases the next one of its class at once.  The completion rate is
the system's saturation throughput, and by Little's law its latency is
the outstanding count over that rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

#: Generator sleep while results are in flight but nothing is due.
POLL_TICK_S = 0.0005


@dataclass
class Returned:
    """One frame the system handed back."""

    index: int  #: position in the run's release order
    release_s: float  #: scheduled (open) or actual (closed) release
    poll_s: float  #: generator clock when ``poll()`` returned it
    result: object  #: what ``keep`` stored of the program's result

    @property
    def latency_s(self) -> float:
        return self.poll_s - self.release_s


@dataclass
class LoadRun:
    """What one load run released and got back."""

    released: int = 0
    returned: List[Returned] = field(default_factory=list)
    #: Release time, segment label and (closed loop) class of every
    #: frame, in release order.
    release_at: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    classes: List[int] = field(default_factory=list)
    #: Release lateness against the schedule, per frame (seconds).
    late_s: List[float] = field(default_factory=list)
    idle_s: float = 0.0
    start_s: float = 0.0
    end_s: float = 0.0
    #: The caller's record of which frame each release carried.
    picks: object = None

    def ok(self, label: str = None) -> List[Returned]:
        """Decoded frames, optionally of one segment only."""
        return [
            r for r in self.returned
            if r.result.ok
            and (label is None or self.labels[r.index] == label)
        ]

    def released_in(self, label: str) -> int:
        return self.labels.count(label)

    @property
    def failed(self) -> int:
        """Rejected, expired or never returned."""
        return self.released - len(self.ok())

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s


def _keep_all(run, index, result):
    return result


def _drive(system, run: LoadRun, release, *, deadline, spans, clock, keep):
    """The shared release/pump/poll/sleep loop.

    ``release(now, pending)`` submits whatever is due (recording
    request id -> frame index in ``pending``) and returns when it next
    wants to run, or ``None`` once it will release nothing more.
    ``keep(run, index, result)`` is what the run stores of a result.
    """
    pending = {}
    while True:
        now = clock()
        if now > deadline:
            break
        with spans.span("release"):
            wake = release(now, pending)
        with spans.span("pump"):
            system.pump()
        with spans.span("poll"):
            out = system.poll()
        polled = clock()
        with spans.span("bookkeeping"):
            for result in out:
                index = pending.pop(result.request_id)
                run.returned.append(Returned(
                    index, run.release_at[index], polled,
                    keep(run, index, result),
                ))
            if wake is None and not pending:
                break
            now = clock()
            wake = deadline if wake is None else wake
            if out:  # returns free closed-loop slots: release at once
                wake = now
            due = system.next_due(now)
            if due is not None or pending:
                wake = min(wake, max(due or now, now + POLL_TICK_S))
        if wake > now:
            with spans.span("sleep"):
                time.sleep(wake - now)
            run.idle_s += clock() - now
    run.end_s = clock()


def run_open(
    system,
    submit: Callable[[int, float], int],
    *,
    segments: Sequence[Tuple[str, float, float]],
    drain_bound_s: float,
    spans,
    keep=_keep_all,
    clock=time.monotonic,
) -> LoadRun:
    """Release ``(label, rate, seconds)`` segments back to back.

    ``submit(i, release_s)`` hands frame ``i`` to the system and
    returns its request id.  Frames not back within ``drain_bound_s``
    of the last release count as never returned.
    """
    run = LoadRun()
    run.start_s = t = clock() + 0.002
    for label, rate, seconds in segments:
        n = max(1, int(round(rate * seconds)))
        run.release_at += [t + i / rate for i in range(n)]
        run.labels += [label] * n
        t += n / rate
    schedule = run.release_at
    run.released = len(schedule)

    def release(now, pending):
        i = len(run.late_s)
        while i < len(schedule) and schedule[i] <= now:
            pending[submit(i, schedule[i])] = i
            run.late_s.append(now - schedule[i])
            i += 1
        return schedule[i] if i < len(schedule) else None

    _drive(
        system, run, release, deadline=schedule[-1] + drain_bound_s,
        spans=spans, clock=clock, keep=keep,
    )
    return run


def run_closed(
    system,
    submit: Callable[[int, float, int], int],
    *,
    outstanding: int,
    classes: int = 1,
    seconds: float,
    drain_bound_s: float,
    spans,
    keep=_keep_all,
    clock=time.monotonic,
) -> LoadRun:
    """Keep ``outstanding`` frames of each of ``classes`` classes in the
    system for ``seconds``.

    ``submit(i, release_s, c)`` hands frame ``i`` of class ``c`` to the
    system; a returned frame is replaced by one of its own class.
    """
    run = LoadRun()
    run.start_s = clock()
    stop = run.start_s + seconds

    def release(now, pending):
        if now >= stop:
            return None
        live = [0] * classes
        for index in pending.values():
            live[run.classes[index]] += 1
        for c in range(classes):
            for _ in range(outstanding - live[c]):
                index = run.released
                run.release_at.append(now)
                run.labels.append("closed")
                run.classes.append(c)
                run.released += 1
                pending[submit(index, now, c)] = index
        return stop

    _drive(
        system, run, release, deadline=stop + drain_bound_s,
        spans=spans, clock=clock, keep=keep,
    )
    return run
