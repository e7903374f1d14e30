"""Per-domain grouping of channel controllers.

A :class:`MemorySystem` owns one :class:`~repro.memctrl.controller.ChannelController`
per channel of a memory domain (the DRAM side or the PIM side) and routes
decoded requests to the controller of their channel.  Address decoding itself
is performed one level up (by the system mapper / HetMap), because the paper's
whole point is that the *mapping function* -- not the controller -- decides
how much parallelism a traffic stream can extract.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dram.channel import DdrChannel
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig, MemoryDomainConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry


class MemorySystem:
    """All channels and controllers of one memory domain."""

    def __init__(
        self,
        engine: SimulationEngine,
        geometry: MemoryDomainConfig,
        memctrl_config: MemCtrlConfig,
        stats: StatsRegistry,
        name: str,
    ) -> None:
        self.engine = engine
        self.geometry = geometry
        self.name = name
        self.stats = stats
        self.channels: List[DdrChannel] = [
            DdrChannel(geometry, channel_id) for channel_id in range(geometry.channels)
        ]
        self.controllers: List[ChannelController] = [
            ChannelController(
                engine,
                channel,
                memctrl_config,
                stats,
                name=f"{name}/ch{channel.channel_id}",
            )
            for channel in self.channels
        ]

    def submit(self, request: MemoryRequest) -> bool:
        """Route a decoded request to its channel controller (False if queue full)."""
        addr = request.dram_addr
        if addr is None:
            raise ValueError("request must be decoded before routing")
        return self.controllers[addr.channel].enqueue(request)

    def is_idle(self) -> bool:
        return all(controller.is_idle() for controller in self.controllers)

    def reset(self) -> None:
        """Reset every (idle) channel controller to power-on state."""
        for controller in self.controllers:
            controller.reset()

    # ------------------------------------------------------------------ stats
    @property
    def peak_bandwidth_gbps(self) -> float:
        return self.geometry.peak_bandwidth_gbps

    def total_bytes(self) -> int:
        return sum(controller.total_bytes for controller in self.controllers)

    def read_bytes(self) -> int:
        return sum(controller.read_bytes for controller in self.controllers)

    def write_bytes(self) -> int:
        return sum(controller.write_bytes for controller in self.controllers)

    def per_channel_bytes(self, direction: str = "write") -> Dict[int, int]:
        """Per-channel byte counts (``direction`` is ``read``, ``write`` or ``all``)."""
        result: Dict[int, int] = {}
        for controller in self.controllers:
            if direction == "read":
                value = controller.read_bytes
            elif direction == "write":
                value = controller.write_bytes
            elif direction == "all":
                value = controller.total_bytes
            else:
                raise ValueError(f"unknown direction '{direction}'")
            result[controller.channel.channel_id] = value
        return result

    def queue_occupancies(self) -> Dict[int, Dict[str, int]]:
        """Current read/write queue occupancy per channel (scenario telemetry)."""
        return {
            controller.channel.channel_id: {
                "read": controller.read_queue_occupancy,
                "write": controller.write_queue_occupancy,
            }
            for controller in self.controllers
        }

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        """Achieved bandwidth over ``elapsed_ns`` as a fraction of the peak."""
        if elapsed_ns <= 0:
            return 0.0
        achieved_gbps = self.total_bytes() / elapsed_ns
        return achieved_gbps / self.peak_bandwidth_gbps

    def per_channel_window_series(
        self, window_ns: float, direction: str, start_ns: float, end_ns: float
    ) -> Dict[int, List[float]]:
        """Per-channel transferred bytes per time window (Figure 6 traces)."""
        series: Dict[int, List[float]] = {}
        for controller in self.controllers:
            tracker_name = f"{controller.name}/{direction}"
            tracker = self.stats.bandwidth_tracker(tracker_name)
            series[controller.channel.channel_id] = tracker.window_series(
                window_ns, start_ns=start_ns, end_ns=end_ns
            )
        return series


__all__ = ["MemorySystem"]
