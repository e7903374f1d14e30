"""PIM-aware Memory Scheduler (PIM-MS, paper §IV-D, Algorithm 1).

PIM-MS exploits the key property of DRAM<->PIM transfers: every PIM memory
transaction of a transfer targets a *mutually exclusive* address (each data
segment belongs to exactly one PIM core), so transactions can be freely
reordered without affecting correctness.  Because the DCE sees the address
buffer for *all* destination PIM cores at once (unlike a software thread,
which only ever works on one core's slice), the scheduler can interleave
requests so that:

* successive requests target different channels (channel-level parallelism,
  the ``#do-parallel channel`` of Algorithm 1),
* within a channel, successive column commands target different bank groups
  (hiding ``tCCD_L``), and
* banks are rotated so row-buffer conflicts never serialize the stream.

The per-core ``offset`` counter of Algorithm 1 (the AGU state) is advanced by
one minimum access granularity (64 B) each time a core is visited; a full
sweep over all cores therefore transfers one chunk per core before the next
sweep begins.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Sequence

from repro.mapping.partition import pim_core_coordinates
from repro.sim.config import MemoryDomainConfig
from repro.transfer.descriptor import TransferDescriptor


class ScheduledAccess(NamedTuple):
    """One 64 B access of the transfer, in the order PIM-MS issues it.

    A ``NamedTuple``: one is produced per transferred cache line on the DCE's
    hot path, where tuple construction is markedly cheaper than a frozen
    dataclass.
    """

    pim_core_id: int
    chunk_index: int
    descriptor_index: int


def get_pim_core_id(
    geometry: MemoryDomainConfig, channel: int, rank: int, bankgroup: int, bank: int
) -> int:
    """Algorithm 1's ``get_pim_core_id`` extended with the channel dimension."""
    within = (
        rank * geometry.banks_per_rank
        + bankgroup * geometry.banks_per_group
        + bank
    )
    return channel * geometry.banks_per_channel + within


class PimAwareScheduler:
    """Generates the fine-grained, MLP-maximising issue order of Algorithm 1."""

    def __init__(self, geometry: MemoryDomainConfig) -> None:
        self.geometry = geometry

    def _grouped_by_channel(self, descriptor: TransferDescriptor) -> List[List[int]]:
        """Group descriptor indices by PIM channel, ordered for intra-channel MLP.

        Algorithm 1 runs one scheduling sequence *per PIM channel*
        (``#do-parallel channel``).  Within a channel the indices are ordered
        by (bank, rank, bank group) so that successive column commands hit
        different bank groups (hiding ``tCCD_L``) and row buffers are rotated
        slowly.
        """
        channels: dict = {}
        for desc_index, core_id in enumerate(descriptor.pim_core_ids):
            home = pim_core_coordinates(self.geometry, core_id)
            key = (home.bank, home.rank, home.bankgroup)
            channels.setdefault(home.channel, []).append((key, desc_index))
        ordered: List[List[int]] = []
        for channel in sorted(channels):
            entries = sorted(channels[channel])
            ordered.append([desc_index for _, desc_index in entries])
        return ordered

    def schedule(self, descriptor: TransferDescriptor) -> Iterator[ScheduledAccess]:
        """Yield every 64 B access of the transfer in PIM-MS issue order.

        The per-channel sequences of Algorithm 1 proceed independently; the
        scheduler skews them by one chunk each (software pipelining) so that
        at any instant the channels are working on *different* chunk offsets.
        The skew matters for the DRAM side of the transfer: per-core slices of
        the source buffer are large (KBs), so if every channel worked on the
        same chunk offset their source addresses would concentrate on a subset
        of DRAM channels; the skew spreads them, letting HetMap's MLP-centric
        DRAM mapping deliver its full parallelism.  Per-core accesses still
        advance strictly sequentially (the AGU offset counter of Figure 11).
        """
        groups = self._grouped_by_channel(descriptor)
        chunks = descriptor.chunks_per_core
        core_ids: Sequence[int] = descriptor.pim_core_ids
        num_groups = len(groups)
        if num_groups == 0:
            return
        width = max(len(group) for group in groups)
        for step in range(chunks + num_groups - 1):
            active = [
                (group_index, step - group_index)
                for group_index in range(num_groups)
                if 0 <= step - group_index < chunks
            ]
            for position in range(width):
                for group_index, chunk_index in active:
                    group = groups[group_index]
                    if position >= len(group):
                        continue
                    desc_index = group[position]
                    yield ScheduledAccess(
                        pim_core_id=core_ids[desc_index],
                        chunk_index=chunk_index,
                        descriptor_index=desc_index,
                    )

    def schedule_serial(self, descriptor: TransferDescriptor) -> Iterator[ScheduledAccess]:
        """Conventional DMA-engine order: one descriptor (PIM core) at a time.

        This is the issue order of the ``Base+D`` ablation point: the engine
        drains core 0's slice completely before starting core 1, so at any
        instant the PIM traffic targets a single bank of a single channel.
        """
        for desc_index, core_id in enumerate(descriptor.pim_core_ids):
            for chunk_index in range(descriptor.chunks_per_core):
                yield ScheduledAccess(
                    pim_core_id=core_id,
                    chunk_index=chunk_index,
                    descriptor_index=desc_index,
                )

    def preview(self, descriptor: TransferDescriptor, count: int = 16) -> List[ScheduledAccess]:
        """First ``count`` scheduled accesses (useful for tests and documentation)."""
        result: List[ScheduledAccess] = []
        for access in self.schedule(descriptor):
            result.append(access)
            if len(result) >= count:
                break
        return result


__all__ = ["PimAwareScheduler", "ScheduledAccess", "get_pim_core_id"]
