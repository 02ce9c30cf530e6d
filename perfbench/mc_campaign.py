"""``mc-campaign``: a failure-rate study followed by an audited campaign.

Phase 1 runs ``run_grid`` over fresh 1-degree plates x P x per-task
failure probability x seeds against an on-disk cache (shard checkpoint
writes), with one worker per CPU.  Phase 2 builds fresh 1-degree plates,
runs a ``sweep``-policy campaign at p = 0.05 with an on-disk provenance
log, audits the log, and resumes the finished campaign from its log and
cache (checkpoint reads, prefix verification).  Small DAGs, many seeds
and many plates: Monte Carlo fork/dedup replay, sharding, checkpoint I/O,
provenance and audit carry the load.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from repro.audit import audit_campaign
from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.provenance import ProvenanceLog, ProvenanceMismatchError
from repro.grid import GridPlan, plan_shards, run_grid
from repro.montage.generator import montage_workflow
from repro.montage.profiles import profile_for_degree
from repro.sim import simulate
from repro.sim.failures import FailureModel, WorkflowAbortedError
from repro.sim.kernel import SUMMARY_DTYPE, run_monte_carlo, summary_batch
from repro.sweep.cache import SimCache

from common import TMP, Round
from spans import NullTracer, TimingSimCache

MODULES = (
    "repro.audit", "repro.campaign", "repro.campaign.provenance",
    "repro.grid", "repro.montage.generator", "repro.montage.profiles",
    "repro.sim", "repro.sweep.cache",
)

#: Summary metrics a grid cell must share with the event engine's result.
METRICS = tuple(n for n in SUMMARY_DTYPE.names if n != "aborted")

SIZES = {
    "full": {
        "grid_plates": 14,
        "processors": (4, 8, 16, 32),
        "probabilities": (0.0, 0.001, 0.002, 0.005, 0.01, 0.02),
        "seeds": 50,
        "shards": 7,
        "campaign_plates": 50,
        "campaign_probability": 0.05,
        "oracle_cells": 24,
    },
    "toy": {
        "grid_plates": 2,
        "processors": (4, 8),
        "probabilities": (0.0, 0.02),
        "seeds": 5,
        "shards": 2,
        "campaign_plates": 4,
        "campaign_probability": 0.05,
        "oracle_cells": 4,
    },
}


def _plates(prefix: str, n: int, base: int, tr) -> tuple:
    profile = profile_for_degree(1.0)
    plates = []
    for i in range(n):
        with tr.span("montage.build"):
            plates.append(
                montage_workflow(
                    1.0, profile=profile, jitter=0.05, seed=base + i,
                    name=f"{prefix}-{base + i}",
                )
            )
    return tuple(plates)


def _grid_plan(seed: int, r: int, sizes: dict, tr) -> GridPlan:
    base = seed * 100_000 + r * 100
    return GridPlan(
        plates=_plates("grid", sizes["grid_plates"], base, tr),
        processors=sizes["processors"],
        probabilities=sizes["probabilities"],
        seeds=tuple(base + k for k in range(sizes["seeds"])),
    )


def _cache(tr, directory):
    if tr.enabled:
        return TimingSimCache(tr, directory)
    return SimCache(directory)


def run_round(
    seed: int, r: int, sizes: dict, tr, checks, keep: dict, workers: int
) -> Round:
    out = Round()
    work = TMP / f"mc-{seed}-{r}-{'traced' if tr.enabled else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()

    plan = _grid_plan(seed, r, sizes, tr)
    t1 = time.perf_counter()
    with tr.span("grid.run") as grid_span:
        grid = run_grid(
            plan, shards=sizes["shards"], workers=workers,
            cache=_cache(tr, work / "grid"),
        )
    grid_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    base = seed * 100_000 + r * 1_000 + 50_000
    plates = _plates("camp", sizes["campaign_plates"], base, tr)
    config = CampaignConfig(
        probability=sizes["campaign_probability"], base_seed=base
    )
    log_path = work / "provenance.jsonl"
    cache = _cache(tr, work / "campaign")
    with tr.span("campaign.run"):
        result = run_campaign(
            plates, "sweep", config, cache=cache,
            log=ProvenanceLog(log_path), workers=1,
        )
    with tr.span("audit.campaign"):
        report = audit_campaign(log_path)
    checks.record(report.ok, f"campaign audit: {report.summary()}")
    logged = log_path.read_bytes()
    with tr.span("campaign.resume"):
        resumed_log = ProvenanceLog(log_path)
        try:
            resumed = run_campaign(
                plates, "sweep", config, cache=cache, log=resumed_log,
                workers=1,
            )
        except ProvenanceMismatchError as exc:
            resumed, resume_ok, resume_error = None, False, str(exc)
    campaign_s = time.perf_counter() - t2
    out.wall = time.perf_counter() - t0
    if resumed is not None:
        resume_ok = (
            resumed_log.replayed == len(resumed_log)
            and log_path.read_bytes() == logged
            and resumed.total_billed == result.total_billed
        )
        resume_error = "resumed campaign re-derived a different log"
    checks.record(resume_ok, f"campaign resume: {resume_error}")

    out.items = plan.n_cells
    out.primary_s = grid_s
    out.extra.update({
        "cells_per_s": plan.n_cells / grid_s,
        "campaign_s": campaign_s,
    })
    attempts = result.total_attempts
    failed_attempts = attempts - result.n_completed
    out.counters.update({
        "montage.tasks": sum(len(wf) for wf in plan.plates + plates),
        "kernel.mc_cells": plan.n_cells,
        "kernel.mc_abort_ratio": grid.n_aborted / plan.n_cells,
        "grid.shards": len(plan_shards(plan, sizes["shards"])),
        "campaign.attempts": attempts,
        "campaign.wasted_ratio": failed_attempts / attempts,
        "provenance.lines": len(logged.splitlines()),
        "provenance.bytes": len(logged),
        "audit.checks": report.n_checks,
    })
    if "oracle" not in keep:
        keep["oracle"] = (plan, grid)
    if tr.enabled:
        _replay(seed, r, sizes, tr, grid_span)
        parallel = _parallel_grid_s(seed, r, sizes, work / "parallel")
        serial = grid_span["end"] - grid_span["start"]
        out.counters["grid.worker_efficiency"] = serial / (
            _cpus() * parallel
        )
    shutil.rmtree(work, ignore_errors=True)
    return out


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _replay(seed: int, r: int, sizes: dict, tr, grid_span: dict) -> None:
    """The grid's cells through ``run_monte_carlo``, shard by shard.

    Mirrors the engine's shard execution: one draw-stream dict per shard,
    one call per plate x P.  The plates are rebuilt so lowering is cold.
    """
    plan = _grid_plan(seed, r, sizes, NullTracer())
    grid_cells = len(plan.probabilities) * len(plan.seeds)
    out = summary_batch(grid_cells)
    with tr.under(grid_span):
        for shard in plan_shards(plan, sizes["shards"]):
            streams: dict = {}
            for pi in shard:
                for n_proc in plan.processors:
                    with tr.span("kernel.mc"):
                        run_monte_carlo(
                            plan.plates[pi], plan.kernel_config(n_proc),
                            plan.probabilities, plan.seeds,
                            max_retries=plan.max_retries, out=out,
                            streams=streams,
                        )


def _parallel_grid_s(seed: int, r: int, sizes: dict, directory) -> float:
    plan = _grid_plan(seed, r, sizes, NullTracer())
    t0 = time.perf_counter()
    run_grid(
        plan, shards=sizes["shards"], workers=_cpus(),
        cache=SimCache(directory),
    )
    return time.perf_counter() - t0


def oracle(keep: dict, seed: int, sizes: dict, tr, checks, stats) -> None:
    """A seeded sample of grid cells against ``simulate(kernel="event")``.

    Every probability of the plan appears in the sample.  An aborted cell
    must abort on the event engine too; any other cell must match it in
    every summary metric.
    """
    plan, grid = keep["oracle"]
    rng = np.random.default_rng(seed)
    n = sizes["oracle_cells"]
    probs = [i % len(plan.probabilities) for i in range(n)]
    t0 = time.perf_counter()
    for qi in probs:
        pi = int(rng.integers(len(plan.plates)))
        ni = int(rng.integers(len(plan.processors)))
        si = int(rng.integers(len(plan.seeds)))
        row = grid.row(pi, ni, qi, si)
        prob = plan.probabilities[qi]
        label = (
            f"cell {plan.plates[pi].name} P={row.n_processors} "
            f"p={prob} seed={row.seed}"
        )
        with tr.span("event.oracle"):
            try:
                ref = simulate(
                    plan.plates[pi], row.n_processors, plan.data_mode,
                    bandwidth_bytes_per_sec=plan.bandwidth_bytes_per_sec,
                    record_trace=False,
                    failures=(
                        FailureModel(
                            prob, seed=row.seed,
                            max_retries=plan.max_retries,
                        )
                        if prob > 0.0 else None
                    ),
                    kernel="event",
                )
            except WorkflowAbortedError:
                ref = None
            except Exception as exc:  # noqa: BLE001 - any raise fails the check
                stats["event.oracle_failures"] += 1
                checks.record(
                    False, f"{label}: event engine raised "
                    f"{type(exc).__name__}: {exc}", wrong=False,
                )
                continue
        ok = (ref is None) == row.aborted and (
            ref is None
            or all(getattr(row, m) == getattr(ref, m) for m in METRICS)
        )
        stats["event.oracle_failures"] += int(not ok)
        checks.record(ok, f"{label}: grid cell differs from event")
    stats["event.oracle_s"] += time.perf_counter() - t0
    stats["event.oracle_checks"] += n
