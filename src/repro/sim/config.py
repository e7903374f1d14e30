"""System configuration mirroring Table I of the PIM-MMU paper.

Every experiment in the reproduction is driven by a :class:`SystemConfig`
instance.  The default values returned by :meth:`SystemConfig.paper_baseline`
match Table I:

* Host processor: 8 cores at 3.2 GHz, 4-wide out-of-order, 64 MSHRs per core,
  8 MB shared LLC, 64-entry read & write request queues, FR-FCFS.
* DRAM system: DDR4-2400, 4 channels, 2 ranks per channel.
* PIM system: DDR4-2400, 4 channels, 2 ranks per channel, 512 PIM cores.
* PIM-MMU: 3.2 GHz DCE, 16 KB data buffer, 64 KB address buffer, PIM-MS
  scheduling (Algorithm 1), HetMap dual mapping.

The ablation design points of Figure 15 (Base, Base+D, Base+D+H,
Base+D+H+P) are expressed through :class:`DesignPoint`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict

CACHE_LINE_BYTES = 64
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


class DesignPoint(enum.Enum):
    """Ablation design points used throughout the evaluation (Figure 15).

    * ``BASELINE`` -- the unmodified UPMEM-like system: software
      multi-threaded transfers, homogeneous locality-centric mapping.
    * ``BASE_D`` -- adds a vanilla Data Copy Engine (a proxy for conventional
      DMA engines such as Intel I/OAT or DSA): transfers are offloaded from
      the CPU but descriptors are processed serially with a small number of
      outstanding requests and without PIM-aware scheduling.
    * ``BASE_DH`` -- additionally enables HetMap, so the DRAM side of the
      transfer enjoys MLP-centric mapping.
    * ``BASE_DHP`` -- the full PIM-MMU: DCE + HetMap + PIM-MS fine-grained
      hardware scheduling.
    """

    BASELINE = "Base"
    BASE_D = "Base+D"
    BASE_DH = "Base+D+H"
    BASE_DHP = "Base+D+H+P"

    @property
    def uses_dce(self) -> bool:
        return self is not DesignPoint.BASELINE

    @property
    def uses_hetmap(self) -> bool:
        return self in (DesignPoint.BASE_DH, DesignPoint.BASE_DHP)

    @property
    def uses_pim_ms(self) -> bool:
        return self is DesignPoint.BASE_DHP

    @property
    def label(self) -> str:
        return self.value


class DcePolicy(enum.Enum):
    """How the Data Copy Engine walks its address buffer.

    ``SERIAL_PER_CORE`` mimics a conventional DMA engine: one descriptor (one
    PIM core's chunk) at a time, with a shallow outstanding-request window.
    ``PIM_MS`` applies Algorithm 1: channel-parallel, bank-group interleaved,
    bank-rotating issue order with deep pipelining bounded only by the data
    buffer capacity.
    """

    SERIAL_PER_CORE = "serial"
    PIM_MS = "pim-ms"


@dataclass(frozen=True)
class DramTimingConfig:
    """DDR4 timing parameters expressed in memory-clock cycles.

    The defaults correspond to DDR4-2400 (tCK = 0.833 ns).  All values are in
    cycles of the memory clock; convert to nanoseconds through ``tCK_ns``.
    """

    name: str = "DDR4-2400"
    data_rate_mtps: int = 2400
    tCL: int = 16
    tRCD: int = 16
    tRP: int = 16
    tRAS: int = 39
    tRC: int = 55
    tCCD_S: int = 4
    tCCD_L: int = 6
    tRRD_S: int = 4
    tRRD_L: int = 6
    tFAW: int = 26
    tWR: int = 18
    tWTR_S: int = 3
    tWTR_L: int = 9
    tRTP: int = 9
    tCWL: int = 12
    tBL: int = 4
    tRTW: int = 8
    tRFC: int = 350
    tREFI: int = 9360

    @property
    def clock_mhz(self) -> float:
        """Memory clock frequency in MHz (half the data rate for DDR)."""
        return self.data_rate_mtps / 2.0

    @property
    def tCK_ns(self) -> float:
        """Duration of one memory-clock cycle in nanoseconds."""
        return 1000.0 / self.clock_mhz

    def ns(self, cycles: float) -> float:
        """Convert a cycle count into nanoseconds."""
        return cycles * self.tCK_ns

    @classmethod
    def ddr4_2400(cls) -> "DramTimingConfig":
        return cls()

    @classmethod
    def ddr4_3200(cls) -> "DramTimingConfig":
        """DDR4-3200 timing (used by the real-system DRAM channels, §V)."""
        return cls(
            name="DDR4-3200",
            data_rate_mtps=3200,
            tCL=22,
            tRCD=22,
            tRP=22,
            tRAS=52,
            tRC=74,
            tCCD_S=4,
            tCCD_L=8,
            tRRD_S=4,
            tRRD_L=8,
            tFAW=34,
            tWR=24,
            tWTR_S=4,
            tWTR_L=12,
            tRTP=12,
            tCWL=16,
            tBL=4,
            tRTW=10,
            tRFC=467,
            tREFI=12480,
        )


@dataclass(frozen=True)
class MemoryDomainConfig:
    """Geometry and timing of one memory domain (the DRAM side or the PIM side).

    ``banks_per_group`` differs between the two domains: conventional DDR4 has
    4 banks per bank group (16 banks per rank) whereas the UPMEM-PIM rank
    exposes 64 PIM banks (one per DPU), which we organise as 4 bank groups of
    16 banks so that Algorithm 1's rank/bank-group/bank enumeration yields the
    paper's 512 PIM cores for the Table I configuration.
    """

    name: str = "dram"
    channels: int = 4
    ranks_per_channel: int = 2
    bankgroups_per_rank: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 32768
    row_size_bytes: int = 8192
    bus_width_bits: int = 64
    timing: DramTimingConfig = field(default_factory=DramTimingConfig.ddr4_2400)

    @property
    def banks_per_rank(self) -> int:
        return self.bankgroups_per_rank * self.banks_per_group

    @property
    def banks_per_channel(self) -> int:
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel

    @property
    def columns_per_row(self) -> int:
        """Number of cache-line-sized (64 B) column blocks per row."""
        return self.row_size_bytes // CACHE_LINE_BYTES

    @property
    def bank_capacity_bytes(self) -> int:
        return self.rows_per_bank * self.row_size_bytes

    @property
    def channel_capacity_bytes(self) -> int:
        return self.banks_per_channel * self.bank_capacity_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.channels * self.channel_capacity_bytes

    @property
    def channel_peak_bandwidth_gbps(self) -> float:
        """Theoretical peak bandwidth of one channel in GB/s."""
        bytes_per_transfer = self.bus_width_bits // 8
        return self.timing.data_rate_mtps * 1e6 * bytes_per_transfer / 1e9

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate theoretical peak bandwidth of the domain in GB/s."""
        return self.channels * self.channel_peak_bandwidth_gbps

    @classmethod
    def paper_dram(cls) -> "MemoryDomainConfig":
        """DRAM system of Table I: DDR4-2400, 4 channels, 2 ranks/channel."""
        return cls(name="dram")

    @classmethod
    def paper_pim(cls) -> "MemoryDomainConfig":
        """PIM system of Table I: DDR4-2400, 4 channels, 2 ranks/channel, 512 DPUs.

        Each PIM bank maps to one DPU and holds a 64 MB MRAM (8192 rows of
        8 KB), matching UPMEM's per-DPU MRAM capacity.
        """
        return cls(
            name="pim",
            banks_per_group=16,
            rows_per_bank=8192,
        )


@dataclass(frozen=True)
class CpuConfig:
    """Host processor parameters (Table I) plus software-transfer costs.

    The software-transfer costs model the per-chunk CPU work performed by the
    UPMEM runtime library (address generation, byte-transpose, AVX-512 issue)
    and the number of outstanding 64 B memory requests a single thread can
    sustain, which together bound per-thread copy throughput.
    """

    num_cores: int = 8
    frequency_ghz: float = 3.2
    issue_width: int = 4
    instruction_window: int = 224
    mshrs_per_core: int = 64
    llc_capacity_bytes: int = 8 * MIB
    llc_assoc: int = 16
    llc_hit_latency_ns: float = 12.0
    # Software transfer modelling knobs.  DRAM<->PIM copy threads keep
    # ``transfer_outstanding_per_thread`` chunks in flight (the transpose and
    # the non-cacheable PIM access defeat the prefetchers), while plain
    # streaming copies/reads over cacheable DRAM benefit from hardware
    # prefetching and sustain a deeper window per core.
    transfer_outstanding_per_thread: int = 10
    transfer_cpu_cycles_per_chunk: int = 24
    streaming_outstanding_per_thread: int = 24
    avx_lanes_per_core: int = 1

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns


@dataclass(frozen=True)
class MemCtrlConfig:
    """Per-channel memory-controller parameters (Table I)."""

    read_queue_depth: int = 64
    write_queue_depth: int = 64
    write_high_watermark: int = 48
    write_low_watermark: int = 16
    policy: str = "FR-FCFS"
    #: Interconnect fabric between engines and the channel controllers
    #: (:mod:`repro.fabric`).  ``none`` keeps the direct-submit path (no
    #: fabric object is built -- bit-identical to the pre-fabric hot path);
    #: ``mesh:WxH`` interposes a 2-D mesh with per-hop latency and
    #: credit-based flow control.
    fabric: str = "none"


@dataclass(frozen=True)
class PimMmuConfig:
    """PIM-MMU hardware parameters (Table I and §VI-C)."""

    dce_frequency_ghz: float = 3.2
    data_buffer_bytes: int = 16 * KIB
    address_buffer_bytes: int = 64 * KIB
    address_entry_bytes: int = 16
    transpose_latency_ns: float = 1.25
    descriptor_fetch_latency_ns: float = 0.625
    serial_outstanding: int = 6
    mmio_doorbell_latency_ns: float = 200.0
    interrupt_latency_ns: float = 2000.0
    technology_nm: int = 32

    @property
    def data_buffer_entries(self) -> int:
        """Number of 64 B cache-line slots in the data buffer."""
        return self.data_buffer_bytes // CACHE_LINE_BYTES

    @property
    def address_buffer_entries(self) -> int:
        return self.address_buffer_bytes // self.address_entry_bytes


@dataclass(frozen=True)
class OsConfig:
    """Operating-system scheduling parameters used by the baseline runtime.

    The paper models the baseline's multi-threaded ``dpu_push_xfer`` as 8
    concurrent per-DPU transfer operations preempted every 1.5 ms under a
    round-robin policy (§V).
    """

    scheduling_quantum_ns: float = 1_500_000.0
    concurrent_transfer_threads: int = 8
    thread_to_dpu_policy: str = "blocked"


@dataclass(frozen=True)
class SystemConfig:
    """Complete system description used to build a :class:`repro.system.PimSystem`."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    dram: MemoryDomainConfig = field(default_factory=MemoryDomainConfig.paper_dram)
    pim: MemoryDomainConfig = field(default_factory=MemoryDomainConfig.paper_pim)
    memctrl: MemCtrlConfig = field(default_factory=MemCtrlConfig)
    pim_mmu: PimMmuConfig = field(default_factory=PimMmuConfig)
    os: OsConfig = field(default_factory=OsConfig)

    @property
    def num_pim_cores(self) -> int:
        """Total number of PIM cores (one per PIM bank)."""
        return self.pim.total_banks

    @classmethod
    def paper_baseline(cls) -> "SystemConfig":
        """The Table I configuration (512 PIM cores)."""
        return cls()

    @classmethod
    def small_test(cls) -> "SystemConfig":
        """A scaled-down system for fast simulations (32 PIM cores).

        2 channels x 1 rank on both domains, 4 bank groups x 4 banks per rank
        and a small LLC.  The geometry keeps every structural property of the
        paper configuration (separate DRAM/PIM domains, bank-level PIM cores)
        at a fraction of the simulation cost; the test suite and the CLI's
        ``--config small`` mode both use it.
        """
        dram = MemoryDomainConfig(
            name="dram",
            channels=2,
            ranks_per_channel=1,
            bankgroups_per_rank=4,
            banks_per_group=4,
            rows_per_bank=4096,
            row_size_bytes=8192,
        )
        pim = MemoryDomainConfig(
            name="pim",
            channels=2,
            ranks_per_channel=1,
            bankgroups_per_rank=4,
            banks_per_group=4,
            rows_per_bank=4096,
            row_size_bytes=8192,
        )
        cpu = CpuConfig(llc_capacity_bytes=1024 * 1024)
        return cls(cpu=cpu, dram=dram, pim=pim)

    def stable_key(self) -> str:
        """A canonical, process-independent string identity for this config.

        Every field of the configuration tree is a frozen dataclass of
        scalars/enums, so ``repr`` enumerates fields in declaration order and
        is deterministic across interpreter runs -- unlike ``hash()``, which
        is salted per process.  The experiment cache keys on this string.
        """
        return repr(self)

    def with_memory_geometry(
        self, channels: int, ranks_per_channel: int
    ) -> "SystemConfig":
        """Derive a configuration with a different DRAM geometry (Figure 14)."""
        dram = replace(
            self.dram, channels=channels, ranks_per_channel=ranks_per_channel
        )
        pim = replace(
            self.pim, channels=channels, ranks_per_channel=ranks_per_channel
        )
        return replace(self, dram=dram, pim=pim)

    def describe(self) -> Dict[str, str]:
        """Render the configuration as the rows of Table I."""
        cpu = self.cpu
        return {
            "CPU": (
                f"{cpu.num_cores} core, {cpu.frequency_ghz}GHz, "
                f"{cpu.issue_width}-wide Out-of-Order, "
                f"{cpu.instruction_window} entry instruction window, "
                f"{cpu.mshrs_per_core} MSHRs per core"
            ),
            "Last Level Cache (LLC)": (
                f"{cpu.llc_capacity_bytes // MIB}MB shared, 64B cacheline, "
                f"{cpu.llc_assoc}-way associative"
            ),
            "Memory Controller": (
                f"{self.memctrl.read_queue_depth}-entry read & write request queues, "
                f"{self.memctrl.policy}, locality-centric memory mapping"
            ),
            "DRAM Timing Parameter": self.dram.timing.name,
            "DRAM System Configuration": (
                f"{self.dram.channels} channels, "
                f"{self.dram.ranks_per_channel} ranks per channel"
            ),
            "PIM Timing Parameter": self.pim.timing.name,
            "PIM System Configuration": (
                f"{self.pim.channels} channels, "
                f"{self.pim.ranks_per_channel} ranks per channel "
                f"({self.num_pim_cores} PIM cores)"
            ),
            "PIM-MMU DCE": (
                f"{self.pim_mmu.dce_frequency_ghz}GHz clock frequency, "
                f"{self.pim_mmu.data_buffer_bytes // KIB} KB data buffer, "
                f"{self.pim_mmu.address_buffer_bytes // KIB} KB address buffer"
            ),
            "PIM-MMU PIM-MS": "Detailed in Algorithm 1",
            "PIM-MMU HetMap": (
                "(DRAM side): MLP-centric memory mapping / (PIM side): ChRaBgBkRoCo"
            ),
        }


__all__ = [
    "CACHE_LINE_BYTES",
    "CpuConfig",
    "DcePolicy",
    "DesignPoint",
    "DramTimingConfig",
    "GIB",
    "KIB",
    "MIB",
    "MemCtrlConfig",
    "MemoryDomainConfig",
    "OsConfig",
    "PimMmuConfig",
    "SystemConfig",
]
