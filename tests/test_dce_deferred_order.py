"""Retry order of the DCE's deferred reads.

:class:`repro.core.dce.DeferredReads` parks blocked reads per target and
merges only the targets that may accept.  The order it retries them in must
be exactly that of the single deque the engine used to rotate through on
every pass, including the mid-pass stop on a full in-flight window.  The
reference below is a literal copy of that pass; Hypothesis drives both with
the same random sequences of defers, per-target accept/refuse outcomes,
blocked targets and window sizes.
"""

from __future__ import annotations

from collections import Counter, deque

from hypothesis import example, given, settings, strategies as st

from repro.core.dce import DeferredReads

KEYS = [("dram", channel, False) for channel in range(4)]


def reference_pass(deferred, deferred_keys, retry_channels, full_targets, submit, room):
    """Step 2 of the former ``DataCopyEngine._pump``, verbatim but for names.

    ``deferred`` holds ``(access, key, request)`` triples; ``deferred_keys``
    is the multiset of their keys.  Returns ``False`` where the engine
    returned early on a full window.
    """
    in_flight, max_in_flight = 0, room
    if deferred and not all(
        key in retry_channels or key in full_targets for key in deferred_keys
    ):
        for _ in range(len(deferred)):
            if in_flight >= max_in_flight:
                return False
            entry = deferred[0]
            key = entry[1]
            if key in retry_channels or key in full_targets:
                deferred.rotate(-1)
                continue
            if submit(entry[0], entry[2]):
                in_flight += 1
                deferred.popleft()
                count = deferred_keys[key] - 1
                if count:
                    deferred_keys[key] = count
                else:
                    del deferred_keys[key]
            else:
                full_targets.add(key)
                deferred.rotate(-1)
    return True


def target_submitter(capacity, log):
    """A submit that accepts ``capacity[key]`` reads per target, then refuses.

    The tests park each read's target key in its request slot.
    """
    left = dict(capacity)

    def submit(access, key, target=None):
        # DeferredReads also passes the target key it retries.
        assert target in (None, key)
        if left[key] > 0:
            left[key] -= 1
            log.append(access)
            return True
        return False

    return submit


_defer = st.tuples(st.just("defer"), st.integers(0, len(KEYS) - 1))
_pass = st.tuples(
    st.just("pass"),
    st.integers(0, 6),  # window room
    st.sets(st.integers(0, len(KEYS) - 1)),  # targets awaiting a retry
    st.sets(st.integers(0, len(KEYS) - 1), max_size=1),  # full from the write pass
    st.lists(st.integers(0, 3), min_size=len(KEYS), max_size=len(KEYS)),  # accepts
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_defer, _defer, _pass), max_size=60))
# The window fills mid-pass after an earlier skip: [b0, a1, b2, a3, c4] with
# target b blocked and room for one read leaves [b2, a3, c4, b0].
@example(
    [("defer", 1), ("defer", 0), ("defer", 1), ("defer", 0), ("defer", 2),
     ("pass", 1, {1}, set(), [4, 4, 4, 4]),
     ("pass", 6, set(), set(), [4, 4, 4, 4])]
)
# A pass that starts with the window already full changes nothing.
@example(
    [("defer", 0), ("defer", 1), ("pass", 0, set(), set(), [4, 4, 4, 4]),
     ("pass", 2, set(), set(), [1, 0, 0, 0])]
)
def test_per_target_retry_matches_rotating_deque(ops):
    reference, reference_keys = deque(), Counter()
    parked = DeferredReads()
    access = 0
    for op in ops:
        if op[0] == "defer":
            key = KEYS[op[1]]
            reference.append((access, key, key))
            reference_keys[key] += 1
            parked.append(key, access, key)
            access += 1
            continue
        _, room, blocked, full, accepts = op
        retry_channels = {KEYS[i] for i in blocked}
        capacity = {key: accepts[i] for i, key in enumerate(KEYS)}
        ref_full, new_full = {KEYS[i] for i in full}, {KEYS[i] for i in full}
        ref_log, new_log = [], []
        ref_more = reference_pass(
            reference, reference_keys, retry_channels, ref_full,
            target_submitter(capacity, ref_log), room,
        )
        new_more = True
        if parked.count:
            new_more = parked.retry(
                target_submitter(capacity, new_log), room, retry_channels, new_full
            )
        assert new_log == ref_log, "submit order differs"
        assert new_full == ref_full
        # The engine pulls fresh reads only after a pass that did not stop;
        # the pull is a no-op on a full window, so the two need only agree
        # while the window has room.
        assert new_more == ref_more or (not new_more and len(new_log) == room)
        leftover = sorted(entry[:2] for fifo in parked._fifos.values() for entry in fifo)
        assert [access for _, access in leftover] == [
            entry[0] for entry in reference
        ], "leftover order differs"
        assert parked.count == len(reference)
