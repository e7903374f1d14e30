"""Boundedness regression for :class:`repro.memctrl.queues.IndexedQueue`.

The lazily materialised ``bank -> row -> {seq -> request}`` hit index is
maintained incrementally by ``remove()``: emptied row buckets and bank
buckets must be evicted on the spot, and the index must dissolve entirely
(``_indexed`` back to ``False``) when the queue drains.  A missed eviction
would leak dict keys for every (bank, row) ever touched -- unbounded growth
over a long replay, plus ever-slower ``oldest_hit`` scans over dead banks.

This was investigated as a suspected leak; empirically ``remove()`` already
evicts (max dead buckets observed over 50k requests: zero).  This test pins
that behaviour: it replays 50k random-address requests through a real
controller and asserts, at sampled completion
points, that the index carries no empty buckets and exactly one entry per
pending request, that every hit head is a pending request on a bank with
pending work and no dirty set outgrows the channel's bank count -- and that
everything is empty (and unsubscribed) once the controller drains.

A Hypothesis test then checks ``oldest_hit`` (and the hit-head pick behind
it) against a literal front-to-back scan under random enqueue, remove,
serve, access and refresh sequences, for both direction queues and the
``qos_priority`` per-class mirror queues.
"""

from __future__ import annotations

import random
from functools import partial

from hypothesis import example, given, settings, strategies as st

from repro.dram.channel import DdrChannel
from repro.mapping.address import DramAddress
from repro.mapping.locality import locality_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.policies import QosPriorityPolicy
from repro.memctrl.queues import IndexedQueue
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig, MemoryDomainConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry

REPLAY_REQUESTS = 50_000
SAMPLE_EVERY = 997  # prime, so sampling never locks onto a traffic period


def _index_shape(queue):
    """(pending, indexed, banks, entries, dead_rows, dead_banks) snapshot."""
    dead_rows = sum(
        1 for rows in queue._by_bank.values() for inner in rows.values() if not inner
    )
    dead_banks = sum(1 for rows in queue._by_bank.values() if not rows)
    entries = sum(
        len(inner) for rows in queue._by_bank.values() for inner in rows.values()
    )
    return (
        len(queue._pending),
        queue._indexed,
        len(queue._by_bank),
        entries,
        dead_rows,
        dead_banks,
    )


def _check_hit_heads(queue):
    """Every hit head is a pending request on its own bank."""
    assert set(queue._hit_heads) <= set(queue._by_bank)
    for bank_key, seq in queue._hit_heads.items():
        assert queue._pending[seq]._bank_row[0] == bank_key


def _check_watchers(channel, geometry):
    """Dirty sets hold bank keys only, so none outgrows the channel."""
    for dirty in channel._row_watchers:
        assert len(dirty) <= geometry.banks_per_channel


def test_index_stays_bounded_over_50k_replay():
    geometry = MemoryDomainConfig.paper_dram()
    memctrl = MemCtrlConfig(
        policy="frfcfs",
        read_queue_depth=64,
        write_queue_depth=64,
        write_high_watermark=48,
        write_low_watermark=16,
    )
    engine = SimulationEngine()
    controller = ChannelController(
        engine, DdrChannel(geometry, 0), memctrl, StatsRegistry(), name="idx/ch0"
    )
    mapping = locality_centric_mapping(geometry)
    capacity = geometry.channel_capacity_bytes
    rng = random.Random(7)
    completed = 0

    def check_queues():
        for queue in (controller._read_queue, controller._write_queue):
            pending, indexed, banks, entries, dead_rows, dead_banks = _index_shape(
                queue
            )
            assert dead_rows == 0, "empty row bucket left behind by remove()"
            assert dead_banks == 0, "empty bank bucket left behind by remove()"
            if indexed:
                # One index entry per pending request, never more: the index
                # can only exist while it mirrors the queue exactly.
                assert entries == pending
                assert banks <= geometry.banks_per_channel
            else:
                assert banks == 0 and entries == 0
            _check_hit_heads(queue)
        _check_watchers(controller.channel, geometry)

    def on_complete(request):
        nonlocal completed
        completed += 1
        if completed % SAMPLE_EVERY == 0:
            check_queues()

    requests = []
    for _ in range(REPLAY_REQUESTS):
        # Uniform random rows: miss-heavy traffic, which is exactly what
        # forces oldest_hit past its prefix scan and materialises the index.
        phys = rng.randrange(0, capacity // 64) * 64
        request = MemoryRequest(phys_addr=phys, is_write=rng.random() < 0.35)
        request.domain = "dram"
        request.dram_addr = mapping.map(phys)
        request.on_complete = on_complete
        requests.append(request)

    feed = iter(requests)

    def pump():
        for request in feed:
            if not controller.enqueue(request, partial(retry, request)):
                return

    def retry(request):
        if controller.enqueue(request, partial(retry, request)):
            pump()

    pump()
    engine.run()
    assert controller.is_idle()
    assert completed == REPLAY_REQUESTS
    for queue in (controller._read_queue, controller._write_queue):
        # Fully drained: no pending requests, no index, flag reset.
        assert _index_shape(queue) == (0, False, 0, 0, 0, 0)
        assert not queue._hit_heads and not queue._dirty
    assert controller.channel._row_watchers == [], "drained queue still subscribed"


# --------------------------------------------------------------------------
# Hit heads == a literal front-to-back scan
# --------------------------------------------------------------------------

GEOMETRY = MemoryDomainConfig.paper_dram()
#: A few banks (two ranks, so a refresh closes only half of them) and rows,
#: so that hits, conflicts and deep fall-through picks are all common.
BANKS = [(rank, group, 0) for rank in (0, 1) for group in (0, 1)] + [(0, 0, 1)]
ROWS = 3
PRIORITIES = {"hi": 1}


def literal_scan(requests, channel):
    """The oldest request whose row is open, scanning front to back."""
    for request in requests:
        if channel.row_state(request.dram_addr) == "hit":
            return request
    return None


def reference_qos_select(queue, channel):
    """Strict priority classes, FR-FCFS within the winning class."""
    requests = list(queue.requests())
    top = max(PRIORITIES.get(request.tenant, 0) for request in requests)
    members = [r for r in requests if PRIORITIES.get(r.tenant, 0) == top]
    return literal_scan(members, channel) or members[0]


_bank = st.integers(0, len(BANKS) - 1)
_row = st.integers(0, ROWS - 1)
_add = st.tuples(
    st.just("add"), _bank, _row, st.booleans(), st.sampled_from(["hi", "lo", None])
)
_OPS = st.one_of(
    _add,
    _add,
    st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
    # Pick with the policy, remove the pick and issue it, like the kernel.
    st.tuples(st.just("serve"), st.booleans()),
    st.tuples(
        st.just("access"), _bank, _row, st.booleans(), st.sampled_from([0.0, 3.0, 40.0, 500.0])
    ),
    # Land just past the rank's refresh deadline, so the refresh closes
    # every open row of the rank.
    st.tuples(
        st.just("refresh"), _bank, _row, st.booleans(), st.sampled_from([0.0, 1.0, 100.0])
    ),
    st.tuples(st.just("pick"),),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=80))
# A refresh triggered through one bank closes the row another bank of the
# same rank had a hit head on.
@example(
    [("add", 0, 1, False, None), ("access", 0, 1, False, 0.0), ("pick",),
     ("refresh", 1, 0, False, 0.0), ("pick",)]
)
def test_oldest_hit_matches_literal_scan(ops):
    channel = DdrChannel(GEOMETRY, 0)
    queues = {False: IndexedQueue(), True: IndexedQueue()}
    policy = QosPriorityPolicy(dict(PRIORITIES))

    def every_queue():
        return list(queues.values()) + list(policy._classes.values())

    seq = 0
    now = 0.0

    def address(bank, row):
        rank, group, index = BANKS[bank]
        return DramAddress(0, rank, group, index, row, 0)

    def check_picks():
        for queue in every_queue():
            expected = literal_scan(queue.requests(), channel)
            assert queue.oldest_hit(channel) is expected
            if queue:
                assert queue.indexed_hit(channel) is expected
        for queue in queues.values():
            if queue:
                assert policy.select(queue, channel) is reference_qos_select(queue, channel)

    def take(request):
        queues[request.is_write].remove(request)
        policy.on_remove(request)

    for op in ops:
        kind = op[0]
        if kind == "add":
            _, bank, row, is_write, tenant = op
            addr = address(bank, row)
            request = MemoryRequest(phys_addr=0, is_write=is_write, tenant=tenant)
            request.dram_addr = addr
            request._seq = seq
            request._bank_row = (channel.bank_key_of(addr), row)
            seq += 1
            queues[is_write].add(request)
            policy.on_enqueue(request)
        elif kind == "remove":
            pending = [r for q in queues.values() for r in q.requests()]
            if pending:
                take(pending[op[1] % len(pending)])
        elif kind == "serve":
            queue = queues[op[1]]
            if queue:
                request = policy.select(queue, channel)
                assert request is reference_qos_select(queue, channel)
                take(request)
                channel.access(request.dram_addr, request.is_write, now)
        elif kind in ("access", "refresh"):
            _, bank, row, is_write, gap = op
            if kind == "refresh":
                rank = channel.rank_state(BANKS[bank][0])
                now = max(now, rank.next_refresh_due)
            now += gap
            channel.access(address(bank, row), is_write, now)
        else:
            check_picks()
        for queue in every_queue():
            _check_hit_heads(queue)
        _check_watchers(channel, GEOMETRY)
        indexed = [queue for queue in every_queue() if queue._indexed]
        assert len(channel._row_watchers) == len(indexed)
    check_picks()
