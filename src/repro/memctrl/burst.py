"""Struct-of-arrays burst container for bulk request admission.

A :class:`RequestBurst` describes many 64 B accesses as parallel numpy
columns -- physical addresses, sizes, tenant-id codes, and (once admitted)
arrival ticks -- instead of a list of :class:`MemoryRequest` objects.  Bulk
producers (the LLM serving driver submits hundreds of lines per iteration
from one event callback) build one burst and hand it to
:meth:`repro.system.PimSystem.submit_burst`, which decodes the address column
through the compiled batch decoder (:meth:`BitFieldMapping.map_batch`) in one
vectorized pass.

Per-request ``MemoryRequest`` objects are still materialized at the admission
boundary -- the indexed queues, scheduler policies, and completion callbacks
are keyed on request identity -- but all address arithmetic (domain dispatch,
DRAM coordinate decode, flat bank keys) happens on whole columns first, and
the objects are built from precomputed plain-int fields.  The admission
order, arrival stamps, controller sequence numbers and trace-hook firing are
exactly those of submitting the same requests one at a time; the differential
suite compares both paths end to end.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.memctrl.request import MemoryRequest, RequestStream

_NO_TENANT = 0

#: Smallest window worth the columnar submit.  Building a burst and running
#: the vectorized decode costs a fixed ~10 numpy calls; measured on the
#: bench matrix, that only amortizes from a few dozen rows up, and the
#: steady-state refill windows of backpressured engines are far below that.
#: Producers issue narrower windows through the scalar ``submit`` path
#: (bit-identical by construction; the differential suite covers both).
MIN_BURST_WINDOW = 32


class RequestBurst:
    """Columnar description of a burst of memory accesses (one row each)."""

    __slots__ = (
        "phys_addrs",
        "sizes",
        "is_write",
        "tenant_codes",
        "tenant_table",
        "arrival_ticks",
        "fabric_hops",
        "stream",
        "source_id",
        "on_complete",
        "pim_core_ids",
    )

    def __init__(
        self,
        phys_addrs: Sequence[int],
        is_write: Union[bool, Sequence[bool]],
        sizes: Union[int, Sequence[int]] = 64,
        tenants: Union[None, str, Sequence[Optional[str]]] = None,
        stream: RequestStream = RequestStream.OTHER,
        source_id: int = 0,
        on_complete: Optional[Callable[[MemoryRequest], None]] = None,
        pim_core_ids: Union[None, int, Sequence[int]] = None,
    ) -> None:
        import numpy as np

        addrs = np.ascontiguousarray(phys_addrs, dtype=np.int64)
        if addrs.ndim != 1:
            raise ValueError("phys_addrs must be one-dimensional")
        n = addrs.shape[0]
        self.phys_addrs = addrs
        if isinstance(is_write, (bool, np.bool_)):
            self.is_write = np.full(n, bool(is_write), dtype=bool)
        else:
            self.is_write = np.ascontiguousarray(is_write, dtype=bool)
            if self.is_write.shape[0] != n:
                raise ValueError("is_write column length mismatch")
        if isinstance(sizes, (int, np.integer)):
            self.sizes = np.full(n, int(sizes), dtype=np.int64)
        else:
            self.sizes = np.ascontiguousarray(sizes, dtype=np.int64)
            if self.sizes.shape[0] != n:
                raise ValueError("sizes column length mismatch")
        # Tenants are interned into a small table plus an int64 code column
        # (code 0 is "no tenant"); bursts are homogeneous or near-homogeneous
        # in tenant, so the table stays tiny.
        table: List[Optional[str]] = [None]
        if tenants is None or isinstance(tenants, str):
            if tenants is not None:
                table.append(tenants)
                codes = np.full(n, 1, dtype=np.int64)
            else:
                codes = np.zeros(n, dtype=np.int64)
        else:
            if len(tenants) != n:
                raise ValueError("tenants column length mismatch")
            index = {None: _NO_TENANT}
            codes = np.empty(n, dtype=np.int64)
            for i, tenant in enumerate(tenants):
                code = index.get(tenant)
                if code is None:
                    code = len(table)
                    index[tenant] = code
                    table.append(tenant)
                codes[i] = code
        self.tenant_codes = codes
        self.tenant_table = table
        #: Filled by ``submit_burst`` for the accepted prefix (integer
        #: picoseconds -- the engine's ``now_ps`` view, which fits an int64).
        self.arrival_ticks = np.zeros(n, dtype=np.int64)
        #: Per-row fabric hop counts, stamped at injection when a fabric is
        #: active (zeros under the default direct path -- X-Y routes are
        #: deterministic, so the count is known before the flit moves).
        self.fabric_hops = np.zeros(n, dtype=np.int64)
        self.stream = stream
        self.source_id = source_id
        self.on_complete = on_complete
        # PIM-core affinity column (or a scalar for the whole burst).  The
        # engine pumps stamp it on the materialized requests so trace hooks
        # observe exactly what the object pump would have produced.
        if pim_core_ids is None or isinstance(pim_core_ids, (int, np.integer)):
            self.pim_core_ids = (
                None if pim_core_ids is None else int(pim_core_ids)
            )
        else:
            column = np.ascontiguousarray(pim_core_ids, dtype=np.int64)
            if column.shape[0] != n:
                raise ValueError("pim_core_ids column length mismatch")
            self.pim_core_ids = column

    def __len__(self) -> int:
        return self.phys_addrs.shape[0]

    def pim_core_at(self, index: int) -> Optional[int]:
        cores = self.pim_core_ids
        if cores is None or isinstance(cores, int):
            return cores
        return int(cores[index])

    def tenant_at(self, index: int) -> Optional[str]:
        return self.tenant_table[self.tenant_codes[index]]


__all__ = ["MIN_BURST_WINDOW", "RequestBurst"]
