"""Golden park/wake values for mixed producers under backpressure.

Every producer that meets a full target parks until the refusing resource
(a mesh first-hop link or a channel controller queue) frees a slot, then
retries.  Which producers wake, and in what order, decides which request
wins the next slot, so the exact values below pin the wake order and the
stall accounting end to end:

* per-link ``fabric/link/*/stalls`` counters (one per refused injection or
  stalled hop),
* the trace replayer's ``deferred`` count,
* the number of refused controller admissions,
* a digest of the whole stats snapshot.

Two runs on ``SystemConfig.small_test()``: memcpy threads, an open-loop
trace replayer, a DCE transfer and (direct path only) a software transfer
share one clock -- first behind a credit-starved ``mesh:3x3,credits=1``,
then on the direct submit path with shrunken controller queues.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.core.dce import DataCopyEngine
from repro.scenarios.trace import TraceReplayer, synthesize_trace
from repro.sim.config import DesignPoint, SystemConfig
from repro.system import build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.upmem_runtime.engine import SoftwareTransferEngine
from repro.workloads.memcpy import MemcpyEngine

KIB = 1024


def _run(fabric: str, read_depth: int, write_depth: int, software: bool) -> dict:
    base = SystemConfig.small_test()
    config = replace(
        base,
        memctrl=replace(
            base.memctrl,
            fabric=fabric,
            read_queue_depth=read_depth,
            write_queue_depth=write_depth,
            write_high_watermark=max(1, write_depth * 3 // 4),
            write_low_watermark=max(0, write_depth // 4),
        ),
    )
    system = build_system(config=config, design_point=DesignPoint.BASE_DHP)
    refused = []
    for controller in system.dram.controllers + system.pim.controllers:
        def counting(request, *args, _enqueue=controller.enqueue):
            accepted = _enqueue(request, *args)
            if not accepted:
                refused.append(1)
            return accepted

        controller.enqueue = counting
    done = {}

    def mark(name):
        def on_complete(result):
            done[name] = result

        return on_complete

    cores = config.num_pim_cores
    MemcpyEngine(
        system, num_threads=2, tenant="copy", stop_scheduler_on_finish=False
    ).begin(0, 64 * KIB, 16 * KIB, on_complete=mark("memcpy"))
    replayer = TraceReplayer(
        system,
        synthesize_trace(
            "bursty",
            total_bytes=16 * KIB,
            base_addr=128 * KIB,
            mean_gap_ns=1.0,
            write_fraction=0.25,
            seed=7,
        ),
        tenant="replay",
    )
    replayer.begin(on_complete=mark("replay"))
    DataCopyEngine(system).begin(
        TransferDescriptor.contiguous(
            direction=TransferDirection.DRAM_TO_PIM,
            dram_base=256 * KIB,
            size_per_core_bytes=512,
            pim_core_ids=range(cores),
            tenant="dce",
        ),
        on_complete=mark("dce"),
    )
    names = {"memcpy", "replay", "dce"}
    if software:
        SoftwareTransferEngine(system, stop_scheduler_on_finish=False).begin(
            TransferDescriptor.contiguous(
                direction=TransferDirection.PIM_TO_DRAM,
                dram_base=512 * KIB,
                size_per_core_bytes=256,
                pim_core_ids=range(cores),
                pim_heap_offset=4 * KIB,
                tenant="soft",
            ),
            on_complete=mark("software"),
        )
        names.add("software")
    system.engine.run_until_done(lambda: names <= done.keys())
    assert names <= done.keys()
    snapshot = system.stats.snapshot()
    stalls = {
        name[len("counter/fabric/link/"):-len("/stalls")]: int(value)
        for name, value in sorted(snapshot.items())
        if name.startswith("counter/fabric/link/")
        and name.endswith("/stalls")
        and value
    }
    payload = json.dumps(snapshot, sort_keys=True)
    return {
        "stalls": stalls,
        "deferred": done["replay"].deferred,
        "refused": len(refused),
        "now_ns": system.now,
        "digest": hashlib.sha256(payload.encode()).hexdigest()[:16],
    }


def test_mixed_producers_on_credit_starved_mesh():
    assert _run("mesh:3x3,credits=1", 64, 64, software=False) == {
        "stalls": {"0,0->0,1": 6, "0,0->1,0": 4227, "1,0->1,1": 10, "1,0->2,0": 48},
        "deferred": 768,
        "refused": 89,
        "now_ns": 5155.666666666671,
        "digest": "e1353841e41061b6",
    }


def test_mixed_producers_on_direct_path_with_shrunken_queues():
    assert _run("none", 4, 4, software=True) == {
        "stalls": {},
        "deferred": 865,
        "refused": 3054,
        "now_ns": 4005.0000000000264,
        "digest": "db9aa560fa723bdf",
    }
