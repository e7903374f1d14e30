"""Workloads: microbenchmarks, access patterns, contenders and PrIM descriptors.

Everything the evaluation section runs lives here:

* :mod:`repro.workloads.patterns` -- sequential/strided access-pattern
  generators and a read-bandwidth probe (Figure 8).
* :mod:`repro.workloads.memcpy` -- the multi-threaded AVX-style
  DRAM->DRAM copy microbenchmark (Figure 6b, Figure 14).
* :mod:`repro.workloads.microbench` -- the CPU-DPU transfer microbenchmark
  harness that runs any design point in either direction and extrapolates
  large transfer sizes from the simulated steady state (Figures 13 and 15).
* :mod:`repro.workloads.prim` -- descriptors of the 16 PrIM workloads used in
  the end-to-end evaluation (Figure 16).
* :mod:`repro.workloads.llm` -- LLM inference serving: a declarative
  :class:`ModelSpec` compiled into per-prefill/per-decode DRAM<->PIM traffic
  and a continuous-batching serving driver with per-request TTFT/ITL records
  (see ``docs/llm_serving.md``).
"""

from repro._lazy import exported_names, lazy_exports

#: Defining module -> the names re-exported from it, resolved on first access.
_EXPORTS = {
    "repro.workloads.memcpy": ("MemcpyEngine", "MemcpyThread"),
    "repro.workloads.microbench": ("TransferExperiment", "run_transfer_experiment"),
    "repro.workloads.patterns": ("AccessPattern", "measure_read_bandwidth"),
    "repro.workloads.prim": ("PRIM_WORKLOADS", "PrimWorkload"),
    "repro.workloads.llm": (
        "LlmTenantSpec",
        "ModelSpec",
        "ServingDriver",
        "ServingOutcome",
        "StepTraffic",
        "compile_decode_step",
        "compile_prefill",
        "run_serving",
    ),
}
__getattr__ = lazy_exports(globals(), _EXPORTS)
__all__ = exported_names(_EXPORTS)
