"""Deterministic discrete-event kernel: clock, event queue, named RNG streams.

The clock is an integer microsecond counter.  Events are dispatched in
(time, enqueue-sequence) order, so two runs that schedule the same events
process them in the same order, always.  ``run_until`` can also be fed a
sorted list of ``(time, payload)`` items beside the heap: at an equal
microsecond every event goes first, including one scheduled at that
microsecond, and then the fed item.  A fed item is not an event: it takes
no sequence number, is not counted in ``processed`` and does not enter the
event hash.  Randomness is drawn from named streams derived from the run
seed, which keeps independent traffic sources reproducible in isolation:
adding or removing one stream never perturbs the draws of another.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from enum import Enum
from itertools import chain
from typing import Any, Callable, Sequence

SimTime = int  # microseconds since run start

US_PER_S = 1_000_000


def seconds(s: float) -> SimTime:
    """Convert seconds to the integer-microsecond clock."""
    return int(round(s * US_PER_S))


class TimeTravel(Exception):
    """An event was scheduled, or the clock advanced, into the past."""


class EventKind(Enum):
    PACKET_ARRIVAL = "packet_arrival"
    PACKET_DEPARTURE = "packet_departure"
    MONITOR_SAMPLE = "monitor_sample"


# Event-hash name bytes of each kind, keyed by identity: hashing an Enum
# member runs Python code, ``id`` does not.
_KIND_NAMES = {id(kind): kind.name.encode() for kind in EventKind}

#: Dispatched-event records buffered before each update of the event hash.
HASH_BATCH = 256


class RngStream:
    """Random stream keyed by (run seed, stream name).

    Each stream owns an independent generator seeded from a digest of the
    run seed and the stream name, so the n-th draw of a stream is a pure
    function of (seed, name, n).  ``counter`` records how many draws have
    been taken, which makes divergence between two runs easy to localise.
    """

    __slots__ = ("name", "counter", "_rng")

    def __init__(self, seed: int, name: str):
        self.name = name
        self.counter = 0
        digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))

    def uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        self.counter += 1
        return self._rng.random()

    def exponential(self, rate: float) -> float:
        """Exponential draw with the given rate (mean 1/rate)."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate!r}")
        return -math.log(1.0 - self.uniform()) / rate

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + int(self.uniform() * (hi - lo + 1))


class SimEngine:
    """Single-threaded event loop over an integer-microsecond clock."""

    def __init__(self, seed: int):
        self.seed = seed
        self._now: SimTime = 0
        # (time, seq, kind, fn, payload); ``seq`` breaks ties between equal times.
        self._heap: list[tuple[SimTime, int, EventKind, Callable[[SimTime, Any], None], Any]] = []
        self._seq = 0
        self._processed = 0
        self._hasher = hashlib.sha256()
        self._hash_buf: list[bytes] = []

    # ------------------------------------------------------------------
    # clock and queue

    def now(self) -> SimTime:
        return self._now

    @property
    def processed(self) -> int:
        """Number of events dispatched so far."""
        return self._processed

    def pending(self, kind: EventKind | None = None) -> int:
        """Number of events still queued, or of those of one ``kind``."""
        if kind is None:
            return len(self._heap)
        return sum(1 for ev in self._heap if ev[2] is kind)

    def schedule(
        self,
        time: SimTime,
        kind: EventKind,
        fn: Callable[[SimTime, Any], None],
        payload: Any = None,
    ) -> None:
        """Queue ``fn(time, payload)`` for dispatch at ``time``."""
        time = int(time)
        if time < self._now:
            raise TimeTravel(f"cannot schedule at {time}us, clock is at {self._now}us")
        heapq.heappush(self._heap, (time, self._seq, kind, fn, payload))
        self._seq += 1

    def run_until(
        self,
        t: SimTime,
        feed: Sequence[tuple[SimTime, Any]] = (),
        on_feed: Callable[[SimTime, Any], None] | None = None,
    ) -> int:
        """Dispatch every event with time <= t; leave the clock exactly at t.

        Each ``(time, payload)`` item of ``feed``, sorted by time and none
        past ``t``, is handed to ``on_feed(time, payload)`` once every event
        at or before its time has been dispatched.  Returns the number of
        events processed by this call; fed items are not events.
        """
        t = int(t)
        if t < self._now:
            raise TimeTravel(f"cannot run backwards to {t}us from {self._now}us")
        if feed and feed[-1][0] > t:
            raise TimeTravel(f"fed item at {feed[-1][0]}us lies past {t}us")
        heap = self._heap
        pop = heapq.heappop
        buf = self._hash_buf
        n = 0
        stop = (t, None)
        for item in chain(feed, (stop,)):
            at = item[0]
            if at < self._now:
                raise TimeTravel(f"fed item at {at}us, clock is at {self._now}us")
            while heap and heap[0][0] <= at:
                time_us, seq, kind, fn, payload = pop(heap)
                self._now = time_us
                buf.append(b"%d,%d,%s;" % (time_us, seq, _KIND_NAMES[id(kind)]))
                if len(buf) >= HASH_BATCH:
                    self._flush_hash()
                fn(time_us, payload)
                n += 1
            if item is stop:
                break
            self._now = at
            on_feed(at, item[1])
        self._now = t
        self._processed += n
        return n

    def _flush_hash(self) -> None:
        self._hasher.update(b"".join(self._hash_buf))
        self._hash_buf.clear()

    def event_hash(self) -> str:
        """Hex digest over the dispatched (time, seq, kind) sequence."""
        self._flush_hash()
        return self._hasher.hexdigest()
