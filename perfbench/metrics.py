"""The benchmark's metric catalogue.

Names, units, directions and bounds come from ``BENCHMARK.json`` at the
repository root, the one place they are written.  This module adds what
that file's fixed keys cannot hold: each per-layer metric's prediction
and the layers spans are grouped by.

End-to-end metrics are reported by every workload, because a comparison
between two commits checks each of them on each workload.  What a work
item is differs by workload (see ``ITEM``), so the throughput metric
carries the generic unit ``1/s``.

Per-layer metrics come from the traced run.  Each names the end-to-end
metric it should move (``moves``) and the workloads it should move it on
(``on``).  ``error_rate`` is the result's ``failed / attempted``, which
every run prints beside the metrics.  A workload missing from ``on``
bypasses the layer, and the prediction there is no change.  A bypassed
layer reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

#: The work item behind ``items_per_s`` on each workload.
ITEM = {
    "sky-ladder": "simulated configs (run_jobs + compute_cost)",
    "mc-campaign": "grid cells of the phase-1 failure-rate study",
    "service-1e6": "requests sampled and simulated by the fluid engine",
}

_ALL = WORKLOADS
_SKY = ("sky-ladder",)
_MC = ("mc-campaign",)
_SVC = ("service-1e6",)
_SKY_MC = ("sky-ladder", "mc-campaign")

#: Per-layer metric -> (the end-to-end metric it should move, the
#: workloads it should move it on).
PREDICTIONS = {
    "setup.interpreter_s": ("setup_s", _ALL),
    "import.numpy_s": ("setup_s", _ALL),
    "import.scipy_s": ("setup_s", _ALL),
    "import.repro_s": ("setup_s", _ALL),
    "import.other_s": ("setup_s", _ALL),
    "montage.build_s": ("items_per_s", _SKY_MC),
    "montage.plates": ("items_per_s", _SKY_MC),
    "montage.tasks": ("items_per_s", _SKY_MC),
    "workflow.fingerprint_s": ("items_per_s", _SKY),
    "workflow.fingerprint_calls": ("items_per_s", _SKY),
    "sweep.run_jobs_s": ("items_per_s", _SKY),
    "sweep.self_s": ("items_per_s", _SKY),
    "sweep.cache_hits": ("items_per_s", _SKY),
    "sweep.cache_misses": ("items_per_s", _SKY),
    "kernel.lower_s": ("items_per_s", _SKY),
    "kernel.turbo_s": ("items_per_s", _SKY),
    "kernel.turbo_configs": ("items_per_s", _SKY),
    "kernel.single_s": ("items_per_s", _SKY),
    "kernel.single_configs": ("items_per_s", _SKY),
    "kernel.capacity_s": ("items_per_s", _SKY),
    "kernel.capacity_configs": ("items_per_s", _SKY),
    "kernel.mc_s": ("items_per_s", _MC),
    "kernel.mc_cells": ("items_per_s", _MC),
    "kernel.mc_abort_ratio": ("items_per_s", _MC),
    "grid.run_s": ("items_per_s", _MC),
    "grid.self_s": ("items_per_s", _MC),
    "grid.shards": ("items_per_s", _MC),
    "grid.worker_efficiency": ("items_per_s", _MC),
    "cache.blob_put_s": ("items_per_s", _MC),
    "cache.blob_get_s": ("round_s", _MC),
    "cache.blob_puts": ("items_per_s", _MC),
    "cache.blob_gets": ("round_s", _MC),
    "cache.blob_bytes": ("items_per_s", _MC),
    "campaign.run_s": ("round_s", _MC),
    "campaign.self_s": ("round_s", _MC),
    "campaign.resume_s": ("round_s", _MC),
    "campaign.attempts": ("round_s", _MC),
    "campaign.wasted_ratio": ("round_s", _MC),
    "provenance.lines": ("round_s", _MC),
    "provenance.bytes": ("round_s", _MC),
    "audit.s": ("round_s", _MC),
    "audit.checks": ("round_s", _MC),
    "service.sample_s": ("items_per_s", _SVC),
    "service.summaries_s": ("round_s", _SVC),
    "service.fluid_s": ("items_per_s", _SVC),
    "service.epochs": ("items_per_s", _SVC),
    "service.hit_rate": ("items_per_s", _SVC),
    "service.requests": ("items_per_s", _SVC),
    "service.fluid_err_mean": ("round_s", _SVC),
    "service.fluid_err_max": ("round_s", _SVC),
    "event.window_s": ("round_s", _SVC),
    "event.requests": ("round_s", _SVC),
    "event.ms_per_request": ("round_s", _SVC),
    "event.oracle_s": ("error_rate", _SKY_MC),
    "event.oracle_checks": ("error_rate", _SKY_MC),
    "event.oracle_failures": ("error_rate", _SKY_MC),
    "checks.error_rate": ("error_rate", _ALL),
    "core.pricing_s": ("items_per_s", _SKY),
    "core.pricing_calls": ("items_per_s", _SKY),
    "layer.montage_self_s": ("round_s", _SKY_MC),
    "layer.workflow_self_s": ("round_s", _SKY),
    "layer.sweep_self_s": ("round_s", _SKY),
    "layer.kernel_self_s": ("round_s", _SKY_MC),
    "layer.event_self_s": ("round_s", _SVC),
    "layer.core_self_s": ("round_s", _SKY),
    "layer.grid_self_s": ("round_s", _MC),
    "layer.cache_self_s": ("round_s", _MC),
    "layer.campaign_self_s": ("round_s", _MC),
    "layer.audit_self_s": ("round_s", _MC),
    "layer.service_self_s": ("round_s", _SVC),
    "trace.wall_s": ("round_s", _ALL),
    "trace.unaccounted_ratio": ("round_s", _ALL),
    "tracing.overhead_s": ("round_s", ()),
}

#: Layers, by the first component of a span name.  Span names are
#: ``<layer>.<call>``; a layer's self time is the sum of its spans' self
#: times.
LAYERS = (
    "montage", "workflow", "sweep", "kernel", "event", "core", "grid",
    "cache", "campaign", "audit", "service",
)

#: Largest share of a traced round's wall that the layer self times may
#: leave unaccounted (glue between spans) before the trace is counted as
#: a failed check.
TRACE_SUM_BOUND = 0.10

#: Bound on the mean relative error of the fluid engine's miss-path mean
#: response over a run's validation windows, against the event engine
#: (the bound ``benchmarks/perf_guard.py`` holds the committed run to).
MEAN_TOL = 0.05


def end_to_end_names() -> tuple[str, ...]:
    return tuple(m["name"] for m in SPEC["end_to_end"])


def per_layer_names() -> tuple[str, ...]:
    return tuple(m["name"] for m in SPEC["per_layer"])


def units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _all_metrics()}


def better() -> dict[str, str]:
    return {m["name"]: m["better"] for m in _all_metrics()}


def _all_metrics() -> list[dict]:
    return SPEC["end_to_end"] + SPEC["per_layer"]
