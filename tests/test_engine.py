"""Event queue semantics, fed items beside the queue, and the named-stream
randomness contract."""

import math

import pytest

from vnfsdnsim.engine import (
    HASH_BATCH,
    EventKind,
    RngStream,
    SimEngine,
    TimeTravel,
    seconds,
)


def test_seconds_converts_to_integer_microseconds():
    assert seconds(1.5) == 1_500_000
    assert isinstance(seconds(0.25), int)


def test_events_dispatch_in_time_then_insertion_order():
    engine = SimEngine(1)
    seen = []
    engine.schedule(50, EventKind.PACKET_ARRIVAL, lambda t, p: seen.append(("a", t)))
    engine.schedule(10, EventKind.PACKET_ARRIVAL, lambda t, p: seen.append(("b", t)))
    engine.schedule(50, EventKind.PACKET_ARRIVAL, lambda t, p: seen.append(("c", t)))
    n = engine.run_until(100)
    assert n == 3
    assert seen == [("b", 10), ("a", 50), ("c", 50)]
    assert engine.now() == 100  # clock lands exactly on the horizon


def test_pending_counts_queued_events_by_kind():
    engine = SimEngine(1)
    for t, kind in ((10, EventKind.PACKET_ARRIVAL), (20, EventKind.PACKET_DEPARTURE),
                    (30, EventKind.PACKET_ARRIVAL)):
        engine.schedule(t, kind, lambda t, p: None)
    engine.run_until(15)
    assert engine.pending() == 2
    assert engine.pending(EventKind.PACKET_ARRIVAL) == 1
    assert engine.pending(EventKind.MONITOR_SAMPLE) == 0


def test_handler_may_schedule_followups_within_horizon():
    engine = SimEngine(1)
    fired = []

    def chain(t, payload):
        fired.append(t)
        if payload > 0:
            engine.schedule(t + 10, EventKind.PACKET_ARRIVAL, chain, payload - 1)

    engine.schedule(0, EventKind.PACKET_ARRIVAL, chain, 5)
    engine.run_until(35)
    assert fired == [0, 10, 20, 30]
    engine.run_until(100)
    assert fired == [0, 10, 20, 30, 40, 50]


def test_scheduling_in_the_past_is_rejected():
    engine = SimEngine(1)
    engine.run_until(100)
    with pytest.raises(TimeTravel):
        engine.schedule(99, EventKind.PACKET_ARRIVAL, lambda t, p: None)
    with pytest.raises(TimeTravel):
        engine.run_until(50)
    # scheduling exactly at the current time is allowed
    engine.schedule(100, EventKind.PACKET_ARRIVAL, lambda t, p: None)


def test_fed_items_follow_every_event_at_their_microsecond():
    engine = SimEngine(1)
    seen = []

    def event(t, name):
        seen.append((name, t))
        if name == "e10":  # an event scheduled at its own microsecond still goes first
            engine.schedule(t, EventKind.PACKET_ARRIVAL, event, "e10-again")

    def fed(t, name):
        seen.append((name, t))
        if name == "f10":  # and so does one a fed item schedules before the next item
            engine.schedule(t, EventKind.PACKET_ARRIVAL, event, "e10-fed")

    for t, name in ((10, "e10"), (20, "e20"), (5, "e5")):
        engine.schedule(t, EventKind.PACKET_ARRIVAL, event, name)
    feed = [(0, "f0"), (10, "f10"), (10, "f10b"), (15, "f15")]
    assert engine.run_until(15, feed, fed) == 4
    assert seen == [("f0", 0), ("e5", 5), ("e10", 10), ("e10-again", 10), ("f10", 10),
                    ("e10-fed", 10), ("f10b", 10), ("f15", 15)]
    assert engine.now() == 15 and engine.pending() == 1


def test_fed_items_are_not_events():
    def run(feed):
        engine = SimEngine(1)
        for t in (3, 7):
            engine.schedule(t, EventKind.PACKET_ARRIVAL, lambda t, p: None)
        engine.run_until(10, feed, lambda t, p: None)
        return engine.processed, engine.event_hash()

    # no sequence number, no count, no hash input
    assert run([]) == run([(1, "a"), (3, "b"), (9, "c")]) == (2, run([])[1])


def test_a_feed_must_be_sorted_and_within_the_horizon():
    engine = SimEngine(1)
    with pytest.raises(TimeTravel):
        engine.run_until(10, [(5, "a"), (4, "b")], lambda t, p: None)
    engine = SimEngine(1)
    with pytest.raises(TimeTravel):
        engine.run_until(10, [(11, "a")], lambda t, p: None)
    engine.run_until(10)
    with pytest.raises(TimeTravel):
        engine.run_until(20, [(9, "a")], lambda t, p: None)


def test_event_hash_is_reproducible_and_seed_free():
    def run(seed):
        engine = SimEngine(seed)
        for i in range(20):
            engine.schedule(i * 7, EventKind.PACKET_ARRIVAL, lambda t, p: None)
        engine.run_until(500)
        return engine.event_hash()

    assert run(42) == run(42)
    # the hash covers (time, seq, kind); identical schedules hash identically
    assert run(42) == run(43)


def test_event_hash_distinguishes_orderings():
    def run(times):
        engine = SimEngine(1)
        for t in times:
            engine.schedule(t, EventKind.PACKET_ARRIVAL, lambda t, p: None)
        engine.run_until(1000)
        return engine.event_hash()

    assert run([1, 2, 3]) != run([1, 3, 2])


def test_event_hash_golden_value_across_flush_batches():
    # The digest is over b"%d,%d,%s;" % (time, seq, kind name) per event;
    # batching the hasher's input must not change it.
    def run():
        engine = SimEngine(7)
        kinds = [EventKind.PACKET_ARRIVAL, EventKind.PACKET_DEPARTURE, EventKind.MONITOR_SAMPLE]
        for i in range(12_000):
            engine.schedule((i * 7919) % 5_000, kinds[i % len(kinds)], lambda t, p: None)
        engine.run_until(2_500)
        engine.run_until(10_000)
        assert engine.processed == 12_000
        return engine.event_hash()

    assert 12_000 > 2 * HASH_BATCH
    assert run() == "d8c9486cd6823d68fc4878ef86b410ac7e40909980f1e50e8ccf16f944772fff"


def test_stream_isolation_draws_do_not_interfere():
    a = RngStream(99, "flow/a")
    solo = [a.uniform() for _ in range(50)]

    a2 = RngStream(99, "flow/a")
    b2 = RngStream(99, "flow/b")
    interleaved = []
    for _ in range(50):
        interleaved.append(a2.uniform())
        b2.uniform()  # traffic on another stream must not shift flow/a
    assert solo == interleaved


def test_same_name_same_seed_same_sequence_different_seed_differs():
    s1 = RngStream(5, "x")
    s2 = RngStream(5, "x")
    s3 = RngStream(6, "x")
    seq1 = [s1.uniform() for _ in range(10)]
    seq2 = [s2.uniform() for _ in range(10)]
    seq3 = [s3.uniform() for _ in range(10)]
    assert seq1 == seq2
    assert seq1 != seq3


def test_exponential_mean_matches_rate():
    # mean of Exp(rate) is 1/rate; with 1e5 draws the sample mean is within
    # ~4 standard errors (sigma/sqrt(N) = 1/(rate*316)) of it
    stream = RngStream(2024, "exp-check")
    rate = 4.0
    n = 100_000
    mean = sum(stream.exponential(rate) for _ in range(n)) / n
    assert math.isclose(mean, 1 / rate, rel_tol=0.01)


def test_exponential_rejects_nonpositive_rate():
    stream = RngStream(1, "x")
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_uniform_int_covers_inclusive_bounds():
    stream = RngStream(3, "ints")
    values = {stream.uniform_int(2, 4) for _ in range(200)}
    assert values == {2, 3, 4}
