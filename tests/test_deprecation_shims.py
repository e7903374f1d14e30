"""The pre-Session entry points must warn but stay byte-identical (satellite).

The old quickstart path -- ``repro.build_system`` + a hand-constructed
``PimMmuRuntime`` -- is kept as a thin deprecation shim over the same
internals :meth:`repro.api.Session.transfer` uses, so its numbers must match
the facade exactly.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import DesignPoint, Session, TransferDirection

KIB = 1024


class TestBuildSystemShim:
    def test_build_system_warns(self, small_config):
        with pytest.warns(DeprecationWarning, match="Session"):
            system = repro.build_system(config=small_config)
        assert system.config is small_config

    def test_module_level_build_system_does_not_warn(self, small_config):
        """Internal code imports repro.system.build_system, which stays silent."""
        from repro.system import build_system

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_system(config=small_config)

    def test_shim_forwards_all_arguments(self, small_config):
        from repro.sim.engine import SimulationEngine
        from repro.sim.stats import StatsRegistry

        engine = SimulationEngine()
        stats = StatsRegistry()
        with pytest.warns(DeprecationWarning):
            system = repro.build_system(
                config=small_config,
                design_point=DesignPoint.BASE_DHP,
                engine=engine,
                stats=stats,
            )
        assert system.engine is engine
        assert system.stats is stats
        assert system.design_point is DesignPoint.BASE_DHP


class TestPimMmuRuntimeShim:
    def test_runtime_construction_warns(self, small_config):
        from repro.core import PimMmuRuntime
        from repro.system import build_system

        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        with pytest.warns(DeprecationWarning, match="Session"):
            PimMmuRuntime(system)

    def test_old_quickstart_path_matches_session_transfer(self, small_config):
        """build_system + PimMmuRuntime produce the numbers Session.transfer does."""
        from repro.core import PimMmuRuntime

        cores = small_config.num_pim_cores
        size_per_core = 2 * KIB
        total = cores * size_per_core

        with pytest.warns(DeprecationWarning):
            system = repro.build_system(
                config=small_config, design_point=DesignPoint.BASE_DHP
            )
            runtime = PimMmuRuntime(system)
        op = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM,
            size_per_pim=size_per_core,
            pim_core_ids=range(cores),
            dram_base=0,
        )
        legacy = runtime.pim_mmu_transfer(op)

        with Session.open(config=small_config) as session:
            modern = session.transfer(total_bytes=total, sim_cap_bytes=total)

        raw = modern.raw.result
        assert raw.descriptor == legacy.descriptor
        assert raw.start_ns == legacy.start_ns
        assert raw.end_ns == legacy.end_ns
        assert raw.cpu_core_busy_ns == legacy.cpu_core_busy_ns
        assert raw.pim_write_bytes == legacy.pim_write_bytes
        assert raw.per_channel_pim_bytes == legacy.per_channel_pim_bytes
        assert modern.duration_ns == legacy.duration_ns
        assert modern.throughput_gbps == legacy.throughput_gbps
