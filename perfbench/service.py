"""``service-1e6``: the mosaic service at 10^6 requests a month.

Each round samples a fresh month of 1-degree mosaic traffic over 50,000
Zipf(1.0) regions, simulates it on a 512-processor pool with the fluid
engine, and validates the fluid engine against the event
``ServiceSimulator`` on five one-hour windows.  The only workload whose
timed region runs the event engine and the fluid epochs.
"""

from __future__ import annotations

import time

from repro.service.scale import (
    FluidServiceEngine,
    montage_traffic,
    sample_traffic,
    validate_fluid,
)
from repro.service.summaries import summarize_mix
from repro.sweep.cache import SimCache

from common import Round
from metrics import MEAN_TOL

MODULES = ("repro.service.scale", "repro.service.summaries")

SIZES = {
    "full": {
        "requests_per_month": 1e6, "regions": 50_000, "zipf": 1.0,
        "processors": 512, "windows": 5,
    },
    "toy": {
        "requests_per_month": 2e4, "regions": 1_000, "zipf": 1.0,
        "processors": 64, "windows": 2,
    },
}


def run_round(
    seed: int, r: int, sizes: dict, tr, checks, keep: dict, workers: int
) -> Round:
    out = Round()
    n_proc = sizes["processors"]
    t0 = time.perf_counter()
    with tr.span("service.spec"):
        spec = montage_traffic(
            sizes["requests_per_month"], horizon_months=1.0,
            degrees=(1.0,), n_regions=sizes["regions"],
            zipf_exponent=sizes["zipf"], seed=seed * 1_000 + r,
        )
    with tr.span("service.summaries"):
        summaries = summarize_mix(
            spec.mix, data_mode=spec.data_mode,
            bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
            extra_shares=(n_proc,), cache=SimCache(),
        )
    t1 = time.perf_counter()
    with tr.span("service.sample"):
        sample = sample_traffic(spec, summaries)
    with tr.span("service.fluid"):
        fluid = FluidServiceEngine(n_proc).run(sample, summaries)
    out.primary_s = time.perf_counter() - t1
    t2 = time.perf_counter()
    with tr.span("service.validate") as validate_span:
        validation = validate_fluid(
            sample, n_proc, n_windows=sizes["windows"], summaries=summaries
        )
    validate_s = time.perf_counter() - t2
    out.wall = time.perf_counter() - t0

    for w in validation.windows:
        tr.add("event.window", validate_span, w.event_seconds)
        tr.add("service.window_fluid", validate_span, w.fluid_seconds)
    keep.setdefault("oracle", []).extend(
        w.rel_error for w in validation.windows
    )
    eco = fluid.economics
    checks.record(
        eco.n_requests == sample.n_requests
        and eco.n_misses == sample.n_misses,
        f"fluid run billed {eco.n_requests} requests / {eco.n_misses} "
        f"misses of {sample.n_requests} / {sample.n_misses} sampled",
    )

    out.items = sample.n_requests
    event_requests = sum(w.n_misses for w in validation.windows)
    event_s = sum(w.event_seconds for w in validation.windows)
    out.extra.update({
        "requests_per_s": sample.n_requests / out.primary_s,
        "validate_s": validate_s,
        "fluid_err_mean": validation.mean_error,
        "fluid_err_max": validation.max_error,
    })
    out.counters.update({
        "service.epochs": len(fluid.trajectories["epoch_start"]),
        "service.hit_rate": sample.hit_rate,
        "service.requests": sample.n_requests,
        "service.fluid_err_mean": validation.mean_error,
        "service.fluid_err_max": validation.max_error,
        "event.requests": event_requests,
        "event.ms_per_request": 1e3 * event_s / max(event_requests, 1),
    })
    return out


def oracle(keep: dict, seed: int, sizes: dict, tr, checks, stats) -> None:
    """Mean fluid-vs-event window error over every window of the run.

    One window's error swings with the traffic it happens to sample, so
    the check pools the run's windows and holds their mean to the
    documented bound; each round's mean and max are reported.
    """
    errors = keep["oracle"]
    mean = sum(errors) / len(errors)
    checks.record(
        mean <= MEAN_TOL,
        f"mean fluid window error {mean:.4f} over {len(errors)} windows "
        f"exceeds {MEAN_TOL}",
    )
