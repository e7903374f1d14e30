"""Burst transfer pump for the Data Copy Engine.

:class:`BurstDataCopyEngine` is the ``transfer_pump="burst"`` implementation
of :class:`repro.core.dce.DataCopyEngine`.  It produces *bit-identical*
event-level behaviour -- same finish times, same stats, same event ordering,
same request ids -- while moving the per-chunk Python work of the object pump
onto whole columns:

* **Vectorized AGU.**  The full PIM-MS issue order is materialized once per
  transfer as numpy columns (:meth:`PimAwareScheduler.schedule_columns`), and
  both endpoint address columns are computed in two array passes -- the
  DRAM side from the descriptor bases, the PIM side through
  :meth:`PimSystem.pim_heap_addrs_batch` -- then pre-decoded through the
  compiled batch decoder so no per-chunk ``decode``/``pim_heap_request``
  round trips remain.
* **Window submission.**  While no target is blocked, fresh reads are issued
  as one :class:`RequestBurst` slice per free in-flight window via
  ``PimSystem.submit_burst`` (which admits in submission order and stops at
  the first reject, exactly like the scalar loop).  The moment any target is
  blocked the pump falls back to the object pump's one-request-per-chunk
  step, which is bit-identical by construction.
* **Shared completion handlers.**  Requests carry bound methods instead of
  one ``functools.partial`` per chunk; a request-to-row map recovers the
  schedule position at the observation points.
* **Coalesced transpose events.**  Read completions delivered back-to-back
  (same target time, *provably* nothing else pushed in between -- the engine
  sequence counter is the witness) share one engine event that replays the
  per-access transpose work in order; ``events_fired`` is bumped by the
  batch size so event counts stay exactly equal across pumps.

The ordering proof obligations are spelled out in docs/performance.md; the
differential suite (``tests/differential``) replays generated and corpus
transfer programs across both pumps x both service kernels to enforce the
bit-identity.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.core.dce import DataCopyEngine
from repro.mapping.address import DramAddress
from repro.mapping.system_mapper import DRAM_DOMAIN, PIM_DOMAIN
from repro.memctrl.burst import RequestBurst
from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES, DcePolicy
from repro.transfer.descriptor import TransferDescriptor, TransferDirection

#: Smallest free window the columnar ``submit_burst`` path is used for.
#: Measured on the full bench matrix (headline-sweep, soa kernel): the
#: columnar submit only pays for wide windows -- the initial fill of a
#: 256-deep PIM-MS window -- where the per-call burst ceremony and
#: ``submit_burst``'s vectorized decode amortize.  Steady-state refills
#: free only a handful of slots per completion flush, and routing those
#: through the pre-decoded scalar step below is ~25% faster end to end
#: (2.68s vs 3.88s headline-sweep; thresholds 16 and 64 measured equal,
#: columnar-always and scalar-always both lose).
_BURST_MIN = 32


class BurstDataCopyEngine(DataCopyEngine):
    """DCE variant that issues whole in-flight windows as request bursts."""

    def __init__(self, system, policy: DcePolicy = DcePolicy.PIM_MS) -> None:
        super().__init__(system, policy=policy)
        self._row_of: Dict[MemoryRequest, int] = {}
        self._batch: Optional[list] = None
        self._cursor = 0
        self._schedule_len = 0

    # ------------------------------------------------------------ vectorized AGU
    def _prepare_schedule(self, descriptor: TransferDescriptor) -> None:
        self._iterator = None
        if self.policy is DcePolicy.PIM_MS:
            cores, chunk_indices, desc_indices = self.scheduler.schedule_columns(
                descriptor
            )
        else:
            cores, chunk_indices, desc_indices = self.scheduler.schedule_serial_columns(
                descriptor
            )
        offsets = chunk_indices * CACHE_LINE_BYTES
        dram_bases = np.asarray(descriptor.dram_base_addrs, dtype=np.int64)
        if cores.shape[0]:
            dram_addrs = dram_bases[desc_indices] + offsets
        else:
            dram_addrs = np.empty(0, dtype=np.int64)
        pim_addrs = self.system.pim_heap_addrs_batch(
            cores, descriptor.pim_heap_offset + offsets
        )
        if descriptor.direction is TransferDirection.DRAM_TO_PIM:
            read_addrs, write_addrs = dram_addrs, pim_addrs
        else:
            read_addrs, write_addrs = pim_addrs, dram_addrs
        self._cores = cores
        self._cores_l = cores.tolist()
        self._chunks_l = chunk_indices.tolist()
        self._descs_l = desc_indices.tolist()
        self._read_addrs = read_addrs
        self._read_addrs_l = read_addrs.tolist()
        self._write_addrs_l = write_addrs.tolist()
        self._tenant = descriptor.tenant
        (
            self._read_domain,
            self._read_domains,
            self._rch,
            self._rrk,
            self._rbg,
            self._rbk,
            self._rrow,
            self._rcol,
            self._rkeys,
        ) = self._decode_columns(read_addrs)
        (
            self._write_domain,
            self._write_domains,
            self._wch,
            self._wrk,
            self._wbg,
            self._wbk,
            self._wrow,
            self._wcol,
            self._wkeys,
        ) = self._decode_columns(write_addrs)
        self._schedule_len = cores.shape[0]
        self._cursor = 0
        self._row_of = {}
        self._batch = None

    def _decode_columns(self, addrs: np.ndarray):
        """Pre-decode an address column: ``(domain, domains, ch, rk, bg, bk, row, col, keys)``.

        ``domain`` is the shared domain string when the column is homogeneous
        (the overwhelmingly common case -- one end of a DCE transfer lives
        entirely in one domain), else ``None`` with a per-row ``domains``
        list, mirroring ``submit_burst``'s dispatch.  ``keys`` holds the flat
        bank key of every row, computed column-wise, so the scalar submit
        paths can use :meth:`PimSystem.submit_prepared`.
        """
        n = addrs.shape[0]
        if n == 0:
            return (DRAM_DOMAIN, None, [], [], [], [], [], [], [])
        system = self.system
        mapper = system.mapper
        pim_base = mapper.partition.pim_base
        pim_mask = addrs >= pim_base
        npim = int(pim_mask.sum())
        domains: Optional[List[str]] = None
        if npim == 0:
            cols = mapper.mapping_for(DRAM_DOMAIN).map_batch(addrs)
            ref = system.dram.controllers[0].channel
            bank_keys = (
                cols.rank * ref._banks_per_rank
                + cols.bankgroup * ref._banks_per_group
                + cols.bank
            )
            domain: Optional[str] = DRAM_DOMAIN
        elif npim == n:
            cols = mapper.mapping_for(PIM_DOMAIN).map_batch(addrs - pim_base)
            ref = system.pim.controllers[0].channel
            bank_keys = (
                cols.rank * ref._banks_per_rank
                + cols.bankgroup * ref._banks_per_group
                + cols.bank
            )
            domain = PIM_DOMAIN
        else:
            dram_mask = ~pim_mask
            dram_cols = mapper.mapping_for(DRAM_DOMAIN).map_batch(addrs[dram_mask])
            pim_cols = mapper.mapping_for(PIM_DOMAIN).map_batch(
                addrs[pim_mask] - pim_base
            )
            dram_ref = system.dram.controllers[0].channel
            pim_ref = system.pim.controllers[0].channel
            merged = []
            for dram_col, pim_col in zip(dram_cols, pim_cols):
                out = np.empty(n, dtype=np.int64)
                out[dram_mask] = dram_col
                out[pim_mask] = pim_col
                merged.append(out)
            cols = type(dram_cols)(*merged)
            bank_keys = np.empty(n, dtype=np.int64)
            bank_keys[dram_mask] = (
                dram_cols.rank * dram_ref._banks_per_rank
                + dram_cols.bankgroup * dram_ref._banks_per_group
                + dram_cols.bank
            )
            bank_keys[pim_mask] = (
                pim_cols.rank * pim_ref._banks_per_rank
                + pim_cols.bankgroup * pim_ref._banks_per_group
                + pim_cols.bank
            )
            domain = None
            domains = [
                PIM_DOMAIN if flag else DRAM_DOMAIN for flag in pim_mask.tolist()
            ]
        return (
            domain,
            domains,
            cols.channel.tolist(),
            cols.rank.tolist(),
            cols.bankgroup.tolist(),
            cols.bank.tolist(),
            cols.row.tolist(),
            cols.column.tolist(),
            bank_keys.tolist(),
        )

    # -------------------------------------------------------------- read window
    def _build_row_read(self, row: int) -> MemoryRequest:
        """Materialize the read request of one schedule row (pre-decoded)."""
        request = MemoryRequest(
            self._read_addrs_l[row],
            False,
            64,
            RequestStream.TRANSFER_READ,
            0,
            self._cores_l[row],
            self._tenant,
            self._burst_read_completed,
        )
        domains = self._read_domains
        request.domain = self._read_domain if domains is None else domains[row]
        request.dram_addr = DramAddress(
            self._rch[row],
            self._rrk[row],
            self._rbg[row],
            self._rbk[row],
            self._rrow[row],
            self._rcol[row],
        )
        self._row_of[request] = row
        return request

    def _pull_new(self, retry_channels: set, full_targets: set) -> None:
        max_in_flight = self._max_in_flight
        system = self.system
        deferred = self._deferred_reads
        cursor = self._cursor
        total = self._schedule_len
        read_domains = self._read_domains
        while self._in_flight < max_in_flight and deferred.count < max_in_flight:
            if cursor >= total:
                break
            window = min(max_in_flight - self._in_flight, total - cursor)
            if retry_channels or full_targets or window < _BURST_MIN:
                # Scalar step: the object pump's per-access logic, with the
                # request built from the precomputed columns.  Deferred
                # entries keep the schedule row in the access slot (retry
                # passes only ever use the parked request object).  Narrow
                # windows take this path too (see ``_BURST_MIN``): the
                # addresses are already decoded, so a tiny columnar submit
                # would only re-decode them and pay numpy call overhead.
                row = cursor
                cursor += 1
                request = self._build_row_read(row)
                domain = self._read_domain if read_domains is None else read_domains[row]
                key = (domain, self._rch[row], False)
                if key in retry_channels or key in full_targets:
                    deferred.append(key, row, request)
                    continue
                if not system.submit_prepared(
                    request, self._rkeys[row], self._rrow[row]
                ):
                    self._register_retry(request, key)
                    full_targets.add(key)
                    deferred.append(key, row, request)
                    continue
                self._in_flight += 1
                continue
            # Burst fast path: one columnar submit for the whole free window.
            stop = cursor + window
            burst = RequestBurst(
                phys_addrs=self._read_addrs[cursor:stop],
                is_write=False,
                sizes=CACHE_LINE_BYTES,
                tenants=self._tenant,
                stream=RequestStream.TRANSFER_READ,
                on_complete=self._burst_read_completed,
                pim_core_ids=self._cores[cursor:stop],
            )
            accepted, requests = system.submit_burst(burst)
            row_of = self._row_of
            for index, request in enumerate(requests):
                row_of[request] = cursor + index
            self._in_flight += accepted
            cursor += accepted
            if cursor < stop:
                rejected = requests[accepted]
                key = self._target_key(rejected)
                self._register_retry(rejected, key)
                full_targets.add(key)
                deferred.append(key, cursor, rejected)
                cursor += 1
        self._cursor = cursor

    # ------------------------------------------------------ prepared submission
    # Retry/parked passes in the base ``_pump`` funnel through these two
    # methods with ``access`` = schedule row; the precomputed bank keys let
    # them skip ``system.submit``'s per-request key derivation.  Semantics
    # (retry registration, in-flight/outstanding accounting) mirror the base
    # class exactly.
    def _submit_read(self, access: int, request=None) -> bool:
        if request is None:
            request = self._build_row_read(access)
        if not self.system.submit_prepared(
            request, self._rkeys[access], self._rrow[access]
        ):
            self._register_retry(request, self._target_key(request))
            return False
        self._in_flight += 1
        return True

    def _submit_write(self, access: int, request=None) -> bool:
        assert request is not None  # burst writes always arrive materialized
        if not self.system.submit_prepared(
            request, self._wkeys[access], self._wrow[access]
        ):
            self._register_retry(request, self._target_key(request))
            return False
        # Posted write: the data-buffer slot frees immediately (step 7).
        self._in_flight -= 1
        self._writes_outstanding += 1
        return True

    # -------------------------------------------------------------- completions
    def _burst_read_completed(self, request: MemoryRequest) -> None:
        self._transpose_enqueue(self._row_of.pop(request))

    def _transpose_enqueue(self, row: int) -> None:
        """Schedule the transpose of one read, coalescing back-to-back arrivals.

        Coalescing is only attempted when the engine's sequence counter has
        not moved since the open batch's event was pushed: that proves *no*
        event of any kind was scheduled in between, so replaying the batched
        accesses back-to-back from one fire is observably identical to the
        object pump's one-event-per-access ordering.
        """
        engine = self.system.engine
        when = engine.now + self.config.transpose_latency_ns
        batch = self._batch
        if batch is not None and batch[0] == when and batch[1] == engine._sequence:
            batch[2].append(row)
            return
        rows = [row]
        engine.schedule_callback(when, partial(self._fire_transpose, rows))
        self._batch = [when, engine._sequence, rows]

    def _fire_transpose(self, rows: List[int]) -> None:
        batch = self._batch
        if batch is not None and batch[2] is rows:
            # Close the batch *before* doing any work: with a zero transpose
            # latency a later completion at the same instant could otherwise
            # append to an already-fired event.
            self._batch = None
        count = len(rows)
        if count > 1:
            # One delivered event per batched access, exactly like the object
            # pump's per-access callbacks (the engine counted this pop once).
            self.system.engine.events_fired += count - 1
        for row in rows:
            self._transpose_row(row)

    def _transpose_row(self, row: int) -> None:
        """Step 6+7 for one access: build the pre-decoded write and issue it."""
        request = MemoryRequest(
            self._write_addrs_l[row],
            True,
            64,
            RequestStream.TRANSFER_WRITE,
            0,
            self._cores_l[row],
            self._tenant,
            self._burst_write_completed,
        )
        domains = self._write_domains
        domain = self._write_domain if domains is None else domains[row]
        request.domain = domain
        request.dram_addr = DramAddress(
            self._wch[row],
            self._wrk[row],
            self._wbg[row],
            self._wbk[row],
            self._wrow[row],
            self._wcol[row],
        )
        key = (domain, self._wch[row], True)
        if key in self._retry_channels:
            self._park_write(key, row, request)
        elif self._submit_write(row, request=request):
            self._pump()
        else:
            self._park_write(key, row, request)

    def _burst_write_completed(self, request: MemoryRequest) -> None:
        self._complete_chunk(request.pim_core_id)


__all__ = ["BurstDataCopyEngine"]
