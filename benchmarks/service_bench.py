"""Service-at-scale benchmark: the fluid engine vs the event simulator.

Measures the tentpole claim of ``repro.service.scale`` and writes it to
``BENCH_service.json`` next to this script:

1. **Fluid throughput** — one month of sustained traffic (default 10⁶
   requests/month, mixed with the result cache) sampled and simulated
   end-to-end by :class:`repro.service.scale.FluidServiceEngine`;
   reported as wall seconds and requests/second (best of ``--repeats``).
2. **Differential validation** — subsampled one-hour traffic windows
   replayed cold-start through the event-based
   :class:`repro.service.simulator.ServiceSimulator` and through the
   fluid engine (:func:`repro.service.scale.validate_fluid`); reported
   as per-window and aggregate relative error of the mean miss-path
   response time.
3. **Projected speedup** — the exact simulator's measured
   seconds/request (the windows replay on its shared-pool kernel,
   equal to the event engine) extrapolated to the full stream (running
   10⁶ requests exactly outright takes tens of minutes; the projection
   method matches ``BENCH_kernel.json``'s whole-sky extrapolation),
   divided by the fluid wall time.

``perf_guard.py`` gates the committed numbers: speedup >= 100x at 10⁶
requests/month, mean response-time error <= 5%, a requests/second
floor, and at least 3 non-empty validation windows.

Usage::

    PYTHONPATH=src python benchmarks/service_bench.py
    [--requests-per-month 1e6] [--processors 512] [--windows 5]
    [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUTPUT = BENCH_DIR / "BENCH_service.json"


def run_service_bench(
    requests_per_month: float,
    n_processors: int,
    n_windows: int,
    repeats: int,
    seed: int,
) -> dict:
    from repro.service.scale import (
        FluidServiceEngine,
        montage_traffic,
        sample_traffic,
        validate_fluid,
    )
    from repro.service.summaries import summarize_mix

    spec = montage_traffic(
        requests_per_month,
        horizon_months=1.0,
        n_regions=50_000,
        seed=seed,
    )
    # Warm the class summaries first so the timed section measures the
    # engine, not the one-off fast-kernel probes (memoized across runs).
    summaries = summarize_mix(
        spec.mix,
        data_mode=spec.data_mode,
        bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
        extra_shares=(n_processors,),
    )

    sample_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sample = sample_traffic(spec, summaries)
        sample_times.append(time.perf_counter() - t0)

    engine = FluidServiceEngine(n_processors)
    run_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = engine.run(sample, summaries)
        run_times.append(time.perf_counter() - t0)

    fluid_seconds = min(sample_times) + min(run_times)

    validation = validate_fluid(
        sample, n_processors, n_windows=n_windows, summaries=summaries
    )
    projected = validation.projected_event_seconds(sample.n_requests)
    eco = result.economics
    return {
        "requests_per_month": requests_per_month,
        "n_requests": sample.n_requests,
        "n_processors": n_processors,
        "seed": seed,
        "hit_rate": sample.hit_rate,
        "mean_response_seconds": eco.mean_response_time,
        "miss_mean_response_seconds": result.miss_mean_response_time(),
        "pool_utilization": eco.pool_utilization,
        "cost_per_request": eco.cost_per_request,
        "sample_best_seconds": min(sample_times),
        "engine_best_seconds": min(run_times),
        "fluid_seconds": fluid_seconds,
        "requests_per_second": sample.n_requests / fluid_seconds,
        "n_windows": len(validation.windows),
        "windows": [
            {
                "t0": w.t0,
                "n_misses": w.n_misses,
                "event_mean_response": w.event_mean,
                "fluid_mean_response": w.fluid_mean,
                "rel_error": w.rel_error,
                "event_seconds": w.event_seconds,
            }
            for w in validation.windows
        ],
        "mean_response_error": validation.mean_error,
        "max_response_error": validation.max_error,
        "event_seconds_per_request": validation.event_seconds_per_request,
        "projected_event_seconds": projected,
        "speedup_vs_event_projected": (
            projected / fluid_seconds if fluid_seconds > 0 else None
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests-per-month", type=float, default=1e6,
        help="sustained traffic level (default 1e6 — the gated point)",
    )
    parser.add_argument(
        "--processors", type=int, default=512,
        help="provisioned shared pool (default 512)",
    )
    parser.add_argument(
        "--windows", type=int, default=5,
        help="validation windows replayed through the event engine",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions for the fluid sections (default 3)",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    os.environ.pop("REPRO_SWEEP_CACHE", None)

    report = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "service": run_service_bench(
            args.requests_per_month,
            args.processors,
            args.windows,
            args.repeats,
            args.seed,
        ),
    }
    svc = report["service"]
    print(
        f"== fluid engine: {svc['n_requests']:,} requests, "
        f"{svc['n_processors']} processors =="
    )
    print(
        f"  sample {svc['sample_best_seconds']:.3f} s"
        f"  engine {svc['engine_best_seconds']:.3f} s"
        f"  total {svc['fluid_seconds']:.3f} s"
        f"  ({svc['requests_per_second']:,.0f} req/s,"
        f" hit rate {svc['hit_rate']:.1%})"
    )
    print(f"== differential validation: {svc['n_windows']} windows ==")
    for w in svc["windows"]:
        print(
            f"  t0={w['t0']:>9.0f}  misses={w['n_misses']:>4}"
            f"  event={w['event_mean_response']:>8.1f} s"
            f"  fluid={w['fluid_mean_response']:>8.1f} s"
            f"  err={w['rel_error']:.2%}"
        )
    print(
        f"  mean error {svc['mean_response_error']:.2%}"
        f"  max error {svc['max_response_error']:.2%}"
    )
    print(
        f"  projected event time {svc['projected_event_seconds']:,.0f} s"
        f"  -> speedup {svc['speedup_vs_event_projected']:,.0f}x"
    )
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
