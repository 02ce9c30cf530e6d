"""``sky-ladder``: the Q3 whole-sky provisioning ladder, run cold.

Each round builds fresh jittered 4-degree plates (3,027 tasks each) and
sweeps every plate over P in {8, 16, 32, 64, 128} x {remote-io, regular,
cleanup}, plus one contended-link config (cleanup, P=32), one traced
config (regular, P=32) and cleanup at P=8 under two finite storage
capacities: 19 configs a plate.  ``run_jobs`` runs them against a fresh
cache on one worker per CPU (one worker in traced runs, so the replays
below compare like with like), and every result is priced under both
plans.  Large DAGs with little sharing: plate build, lowering and the
fast-kernel loops do the work; Monte Carlo and the event engine do none.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import repro.sim.kernel as kernel
from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008
from repro.montage.generator import montage_workflow
from repro.montage.profiles import profile_for_degree
from repro.sim import simulate
from repro.sim.kernel import run_fast_kernel_batch
from repro.sweep import run_jobs
from repro.sweep.cache import SimCache
from repro.sweep.job import SimJob

from common import Round
from spans import NullTracer, counting

MODULES = (
    "repro.core.costs", "repro.core.plans", "repro.core.pricing",
    "repro.montage.generator", "repro.montage.profiles", "repro.sim",
    "repro.sweep", "repro.sweep.job",
)

SIZES = {
    "full": {"plates": 2, "degree": 4.0},
    "toy": {"plates": 1, "degree": 4.0},
}

PROCESSORS = (8, 16, 32, 64, 128)
MODES = ("remote-io", "regular", "cleanup")
CAPACITIES = (1.2e10, 2e10)
CONFIGS_PER_PLATE = len(PROCESSORS) * len(MODES) + 2 + len(CAPACITIES)


def _plates(seed: int, r: int, sizes: dict, tr) -> list:
    degree = sizes["degree"]
    # An explicit profile bypasses the generator's unbounded memo, so each
    # round builds (and later frees) its own plates.
    profile = profile_for_degree(degree)
    plates = []
    for i in range(sizes["plates"]):
        with tr.span("montage.build"):
            plates.append(
                montage_workflow(
                    degree, profile=profile, jitter=0.05,
                    seed=seed * 100_000 + r * 100 + i,
                    name=f"sky-{seed}-{r}-{i}",
                )
            )
    return plates


def _ladder(wf) -> list[SimJob]:
    jobs = [
        SimJob(wf, p, mode) for p in PROCESSORS for mode in MODES
    ]
    jobs.append(SimJob(wf, 32, "cleanup", link_contention=True))
    jobs.append(SimJob(wf, 32, "regular", record_trace=True))
    jobs.extend(
        SimJob(wf, 8, "cleanup", storage_capacity_bytes=cap)
        for cap in CAPACITIES
    )
    return jobs


LOOPS = ("turbo", "single", "capacity")


def loop_class(job: SimJob) -> str:
    """The fast-kernel loop ``run_fast_kernel_batch`` picks for a job.

    The replay groups configs by this; traced rounds check it against
    the loops the package actually ran (:func:`_probes`).
    """
    if job.storage_capacity_bytes is not None:
        return "capacity"
    if (
        job.record_trace or job.link_contention
        or job.data_mode == "remote-io"
    ):
        return "single"
    return "turbo"


def run_round(
    seed: int, r: int, sizes: dict, tr, checks, keep: dict, workers: int
) -> Round:
    out = Round()
    t0 = time.perf_counter()
    plates = _plates(seed, r, sizes, tr)
    with tr.span("sweep.jobs"):
        jobs = [job for wf in plates for job in _ladder(wf)]
    cache = SimCache()
    with _probes(tr) as calls, tr.span("sweep.run_jobs") as run_span:
        results = run_jobs(jobs, workers=workers, cache=cache)
    with tr.span("core.pricing"):
        for job, res in zip(jobs, results):
            compute_cost(
                res, AWS_2008,
                ExecutionPlan.provisioned(job.n_processors, job.data_mode),
            )
            compute_cost(
                res, AWS_2008,
                ExecutionPlan.on_demand(job.n_processors, job.data_mode),
            )
    out.wall = out.primary_s = time.perf_counter() - t0
    out.items = len(jobs)
    out.extra["configs_per_s"] = out.items / out.primary_s
    if "oracle" not in keep:
        keep["oracle"] = (
            jobs[:CONFIGS_PER_PLATE], results[:CONFIGS_PER_PLATE]
        )
    if tr.enabled:
        classes = [loop_class(job) for job in jobs]
        expected = {c: classes.count(c) for c in LOOPS}
        ran = {c: calls[c] for c in LOOPS}
        checks.record(
            ran == expected,
            f"run_jobs ran the kernel loops {ran}; the replay groups "
            f"configs as {expected} (loop_class is out of date)",
            wrong=False,
        )
        out.counters.update({
            "montage.tasks": sum(len(wf) for wf in plates),
            "workflow.fingerprint_calls": calls["fingerprint"],
            "sweep.cache_hits": cache.hits,
            "sweep.cache_misses": cache.misses,
            "core.pricing_calls": 2 * len(jobs),
            **{f"kernel.{c}_configs": ran[c] for c in LOOPS},
        })
        _replay(seed, r, sizes, tr, run_span)
    return out


def _probes(tr):
    """In traced rounds, count the package's calls during ``run_jobs``.

    ``SimJob.fingerprint`` calls, and the fast-kernel loop each config
    ran on (the loops are the private functions
    ``run_fast_kernel_batch`` dispatches to).
    """
    if not tr.enabled:
        return nullcontext({})
    return counting({
        "fingerprint": (SimJob, "fingerprint"),
        "turbo": (kernel, "_run_turbo"),
        "single": (kernel, "_run_single"),
        "capacity": (kernel, "_run_capacity"),
    })


def _replay(seed: int, r: int, sizes: dict, tr, run_span: dict) -> None:
    """Feed the round's inputs into the layers below ``run_jobs``.

    Fresh plates (same seeds, so the same content) keep the replay cold:
    fingerprints and lowerings are memoized per workflow object.
    """
    plates = _plates(seed, r, sizes, NullTracer())
    with tr.under(run_span):
        for wf in plates:
            jobs = _ladder(wf)
            with tr.span("workflow.fingerprint"):
                for job in jobs:
                    job.fingerprint()
            with tr.span("kernel.lower"):
                run_fast_kernel_batch(wf, [])
            for cls in LOOPS:
                with tr.span(f"kernel.{cls}"):
                    run_fast_kernel_batch(
                        wf,
                        [j.kernel_config() for j in jobs
                         if loop_class(j) == cls],
                    )


def oracle(keep: dict, seed: int, sizes: dict, tr, checks, stats) -> None:
    """Every config class of one plate against ``simulate(kernel="event")``.

    A result must equal the event engine's; a config the event engine
    cannot run (it raises) fails its check too.
    """
    jobs, results = keep["oracle"]
    t0 = time.perf_counter()
    for job, res in zip(jobs, results):
        with tr.span("event.oracle"):
            try:
                ref = simulate(
                    job.workflow, job.n_processors, job.data_mode,
                    bandwidth_bytes_per_sec=job.bandwidth_bytes_per_sec,
                    storage_capacity_bytes=job.storage_capacity_bytes,
                    link_contention=job.link_contention,
                    separate_links=job.separate_links,
                    record_trace=job.record_trace,
                    kernel="event",
                )
            except Exception as exc:  # noqa: BLE001 - any raise fails the check
                stats["event.oracle_failures"] += 1
                checks.record(
                    False, f"{_label(job)}: event engine raised "
                    f"{type(exc).__name__}: {exc}", wrong=False,
                )
                continue
        ok = ref == res
        stats["event.oracle_failures"] += int(not ok)
        checks.record(ok, f"{_label(job)}: fast result differs from event")
    stats["event.oracle_s"] += time.perf_counter() - t0
    stats["event.oracle_checks"] += len(jobs)


def _label(job: SimJob) -> str:
    parts = [job.workflow.name, f"P={job.n_processors}", job.data_mode]
    if job.link_contention:
        parts.append("contended")
    if job.record_trace:
        parts.append("traced")
    if job.storage_capacity_bytes is not None:
        parts.append(f"capacity={job.storage_capacity_bytes:g}B")
    return " ".join(parts)
