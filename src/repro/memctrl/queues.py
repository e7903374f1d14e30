"""Indexed request queues for the memory-controller service kernel.

The seed's controller kept each queue as a plain list and re-scanned it on
every scheduling decision (``O(queue depth)`` per pick, with a ``list.remove``
on top -- quadratic under deep queues).  :class:`IndexedQueue` replaces that
with structures maintained incrementally:

* an insertion-ordered ``seq -> request`` dict (Python dicts preserve
  insertion order, so FIFO head lookup is O(1));
* a **lazily built** ``bank -> row -> {seq -> request}`` index; and
* on top of the index, one **hit head** per bank: the oldest pending seq on
  that bank's open row.  "The oldest request that hits an open row" is then
  the minimum hit head.  A hit head can only go stale when its bank's open
  row changes (the channel records each ACT, PRE and refresh in the queue's
  *dirty set*, see :meth:`DdrChannel.watch_rows`) or when a request on that
  bank arrives or leaves; each pick refreshes only the dirty banks, so the
  work per pick is proportional to what changed since the last one.

Hit-rich traffic is resolved by a short arrival-order prefix scan and never
pays for the index at all; the index materialises the first time a pick
actually falls through the prefix, and is then maintained incrementally until
the queue drains.

Requests carry their queue bookkeeping in two private slots (``_seq``,
``_bank_row``) stamped by the admission front-end, so removal needs no
recomputation and no scanning.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, TYPE_CHECKING

from repro.memctrl.request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.channel import DdrChannel


class IndexedQueue:
    """FIFO request queue with a lazily materialised (bank, row) hit index."""

    __slots__ = ("_pending", "_by_bank", "_indexed", "_hit_heads", "_dirty", "_channel")

    #: Queue prefix scanned in arrival order before consulting the bank
    #: index.  Row-hit-rich traffic resolves within a few entries; miss-heavy
    #: deep queues pay O(PREFIX + changed banks) instead of O(depth).
    SCAN_PREFIX = 4

    def __init__(self) -> None:
        #: seq -> request, in arrival order.
        self._pending: Dict[int, MemoryRequest] = {}
        #: bank_key -> row -> {seq -> request}, each inner dict in arrival
        #: order.  Only populated while ``_indexed`` is True.
        self._by_bank: Dict[int, Dict[int, Dict[int, MemoryRequest]]] = {}
        self._indexed = False
        #: bank_key -> oldest pending seq on the bank's open row, for every
        #: bank that has one and is not in ``_dirty``.  Every value is a
        #: pending seq (``remove`` drops a head as it leaves).
        self._hit_heads: Dict[int, int] = {}
        #: Banks whose hit head may be stale.  While indexed, the channel
        #: adds every bank whose open row changes; holds bank keys only, so
        #: it never exceeds the channel's bank count.
        self._dirty: Set[int] = set()
        #: The channel whose row changes feed ``_dirty`` (while indexed).
        self._channel: Optional["DdrChannel"] = None

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def _index_add(self, request: MemoryRequest) -> None:
        seq = request._seq
        bank_key, row = request._bank_row
        if bank_key not in self._hit_heads:
            # A bank with a hit head keeps it (the newcomer is younger); one
            # without may have just gained a hit.
            self._dirty.add(bank_key)
        rows = self._by_bank.get(bank_key)
        if rows is None:
            self._by_bank[bank_key] = {row: {seq: request}}
            return
        inner = rows.get(row)
        if inner is None:
            rows[row] = {seq: request}
        else:
            inner[seq] = request

    def add(self, request: MemoryRequest) -> None:
        """Append a request (``_seq`` and ``_bank_row`` must be stamped)."""
        self._pending[request._seq] = request
        if self._indexed:
            self._index_add(request)

    def remove(self, request: MemoryRequest) -> None:
        """Remove a previously added request in O(1)."""
        del self._pending[request._seq]
        if self._indexed:
            seq = request._seq
            bank_key, row = request._bank_row
            if self._hit_heads.get(bank_key) == seq:
                del self._hit_heads[bank_key]
                self._dirty.add(bank_key)
            rows = self._by_bank[bank_key]
            inner = rows[row]
            del inner[seq]
            if not inner:
                del rows[row]
                if not rows:
                    del self._by_bank[bank_key]
                    if not self._by_bank:
                        self._unindex()

    def first(self) -> Optional[MemoryRequest]:
        """The oldest pending request, or ``None`` when empty."""
        for request in self._pending.values():
            return request
        return None

    def oldest_hit(self, channel: "DdrChannel") -> Optional[MemoryRequest]:
        """The oldest request targeting a currently open row, or ``None``.

        Hybrid search: first scan the queue head in arrival order (the first
        hit found *is* the oldest hit -- exactly the request a front-to-back
        FR-FCFS scan returns); if the head of the queue is hit-free, take the
        minimum hit head (:meth:`indexed_hit`).  Either way the result matches
        the seed's linear scan while bounding the work at O(PREFIX + changed
        banks) rather than O(queue depth).
        """
        banks = channel._banks
        pending = self._pending
        scanned = 0
        for request in pending.values():
            bank_key, row = request._bank_row
            state = banks.get(bank_key)
            if state is not None and state.open_row == row:
                return request
            scanned += 1
            if scanned >= self.SCAN_PREFIX:
                break
        if len(pending) <= scanned:
            return None
        return self.indexed_hit(channel)

    def indexed_hit(self, channel: "DdrChannel") -> Optional[MemoryRequest]:
        """:meth:`oldest_hit` without the prefix scan (the minimum hit head).

        Callers that have already scanned the queue prefix themselves (the
        service kernel's inlined FR-FCFS pick) call this directly.
        """
        if self._channel is not channel:
            self._attach(channel)
        dirty = self._dirty
        heads = self._hit_heads
        if dirty:
            banks = channel._banks
            by_bank = self._by_bank
            for bank_key in dirty:
                rows = by_bank.get(bank_key)
                state = banks.get(bank_key)
                # open_row None never matches a row key.
                inner = rows.get(state.open_row) if rows and state is not None else None
                if inner:
                    for seq in inner:
                        heads[bank_key] = seq
                        break
                else:
                    heads.pop(bank_key, None)
            dirty.clear()
        if not heads:
            return None
        return self._pending[min(heads.values())]

    def _attach(self, channel: "DdrChannel") -> None:
        """Materialise the index (if needed) and follow ``channel``'s row changes."""
        if self._channel is not None:
            self._channel.unwatch_rows(self._dirty)
        if not self._indexed:
            # First fall-through of this queue episode: build the index,
            # then keep it incrementally up to date.
            self._by_bank.clear()
            index_add = self._index_add
            for request in self._pending.values():
                index_add(request)
            self._indexed = True
        self._hit_heads.clear()
        self._dirty.update(self._by_bank)
        channel.watch_rows(self._dirty)
        self._channel = channel

    def _unindex(self) -> None:
        """Dissolve the index (the queue drained) and stop following row changes."""
        self._by_bank.clear()
        self._hit_heads.clear()
        self._dirty.clear()
        self._indexed = False
        if self._channel is not None:
            self._channel.unwatch_rows(self._dirty)
            self._channel = None

    def requests(self) -> Iterator[MemoryRequest]:
        """Pending requests in arrival order (oldest first)."""
        return iter(self._pending.values())

    def clear(self) -> None:
        self._pending.clear()
        self._unindex()


__all__ = ["IndexedQueue"]
