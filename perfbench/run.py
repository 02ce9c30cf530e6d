"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sky-ladder --seed 1 --seconds 20 --trace 0

Workloads: ``sky-ladder``, ``mc-campaign``, ``service-1e6`` (see
``perfbench/README.md`` for what each runs and why).  The seed makes the
inputs; the program only sees what the seed generates.  The benchmark
repeats whole rounds of the workload for ``--seconds`` seconds, then
checks outputs against the event-engine oracle outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, whose spans are written as JSONL under
``.perfbench_out/``.  Lines before it give the machine header and every
metric by name, unit and direction.  The exit code is not 0 when the
package cannot be imported or no round completed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _prepare() -> None:
    """Make ``src`` importable and the run independent of REPRO_* settings."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {SRC}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


#: Workload name -> the benchmark module that runs it.
MODULES = {
    "sky-ladder": "sky_ladder",
    "mc-campaign": "mc_campaign",
    "service-1e6": "service",
}


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    max_rounds: int | None = None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    import common
    import metrics
    from spans import NullTracer, Tracer

    mod = importlib.import_module(MODULES[name])
    sizes = mod.SIZES[size]
    header = common.machine_header(name, seed, seconds, int(trace))
    checks = common.Checks()
    keep: dict = {}
    stats = {
        "event.oracle_s": 0.0,
        "event.oracle_checks": 0,
        "event.oracle_failures": 0,
    }
    null = NullTracer()
    tracer = Tracer(uuid.uuid4().hex) if trace else null

    def attempt(r: int, tr, workers: int):
        try:
            return mod.run_round(seed, r, sizes, tr, checks, keep, workers)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            traceback.print_exc()
            checks.record(
                False, f"round {r} raised {type(exc).__name__}: {exc}",
                wrong=False,
            )
            return None

    plain: list = []
    traced: list = []
    try:
        if trace:
            layer = common.import_breakdown(mod.MODULES)
            for r in common.rounds(seconds, max_rounds):
                # Same inputs twice: untraced, then traced with replays.
                plain.append(attempt(r, null, 1))
                first = len(tracer.spans)
                rd = attempt(r, tracer, 1)
                if rd is not None:
                    rd.spans = tracer.spans[first:]
                traced.append(rd)
        else:
            host = common.HostSpeed()
            setup_s, setup_wall, setup_ref = common.setup_seconds(mod.MODULES)
            workers = len(os.sched_getaffinity(0))
            with common.PeakMemory() as mem:
                before = host.sample()
                for r in common.rounds(seconds, max_rounds):
                    rd = attempt(r, null, workers)
                    after = host.sample()
                    if rd is not None:
                        rd.speed = common.speed_factor(before, after)
                    plain.append(rd)
                    before = after
            peak_mb = mem.peak_mb()
        plain = [rd for rd in plain if rd is not None]
        traced = [rd for rd in traced if rd is not None]
        if not plain or (trace and not traced):
            raise SystemExit("perfbench: no round of the workload completed")
        oracle = getattr(mod, "oracle", None)
        if oracle is not None and "oracle" in keep:
            oracle(keep, seed, sizes, tracer, checks, stats)
    finally:
        shutil.rmtree(common.TMP, ignore_errors=True)

    med = common.median
    extra = {k: med(rd.extra[k] for rd in plain) for k in plain[0].extra}
    if trace:
        values = dict(layer)
        per_round = [_layer_metrics(rd, checks) for rd in traced]
        for key in per_round[0]:
            values[key] = med(m[key] for m in per_round)
        values.update(stats)
        values["checks.error_rate"] = checks.failed / max(checks.attempted, 1)
        values["tracing.overhead_s"] = (
            med(rd.wall for rd in traced) - med(rd.wall for rd in plain)
        )
        names = metrics.per_layer_names()
        path = common.OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(path, header)
    else:
        raw = {
            "setup_s": setup_wall,
            "items_per_s": med(rd.items / rd.primary_s for rd in plain),
            "round_s": med(rd.wall for rd in plain),
        }
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
            "items_per_s": med(
                rd.items / (rd.primary_s * rd.speed) for rd in plain
            ),
            "round_s": med(rd.wall * rd.speed for rd in plain),
        }
        extra.update({f"{k} (wall clock)": v for k, v in raw.items()})
        extra["host.reference_s"] = med(host.samples)
        extra["host.setup_reference_s"] = setup_ref
        names = metrics.end_to_end_names()
    units = metrics.units()
    result = {
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            n: {"value": values.get(n, 0.0), "unit": units[n]} for n in names
        },
    }
    lines = _report(name, header, result, extra, checks, len(plain))
    if trace:
        lines.append(f"# spans: {path.relative_to(common.ROOT)}")
    return result, lines


def _layer_metrics(rd, checks) -> dict:
    """Per-layer figures of one traced round, from its spans and counters."""
    import metrics
    from spans import count, layer_self_times, self_times, total

    spans = rd.spans
    own = self_times(spans)

    def self_of(*names: str) -> float:
        return sum(own[s["id"]] for s in spans if s["name"] in names)

    by_layer = layer_self_times(spans)
    cache_spans = [s for s in spans if s["name"].startswith("cache.")]
    m = {
        "montage.build_s": total(spans, "montage.build"),
        "montage.plates": count(spans, "montage.build"),
        "workflow.fingerprint_s": total(spans, "workflow.fingerprint"),
        "sweep.run_jobs_s": total(spans, "sweep.run_jobs"),
        "sweep.self_s": self_of("sweep.run_jobs"),
        "kernel.lower_s": total(spans, "kernel.lower"),
        "kernel.turbo_s": total(spans, "kernel.turbo"),
        "kernel.single_s": total(spans, "kernel.single"),
        "kernel.capacity_s": total(spans, "kernel.capacity"),
        "kernel.mc_s": total(spans, "kernel.mc"),
        "grid.run_s": total(spans, "grid.run"),
        "grid.self_s": self_of("grid.run"),
        "cache.blob_put_s": total(spans, "cache.put_blob"),
        "cache.blob_puts": count(spans, "cache.put_blob"),
        "cache.blob_get_s": total(spans, "cache.get_blob"),
        "cache.blob_gets": count(spans, "cache.get_blob"),
        "cache.blob_bytes": sum(s.get("bytes", 0) for s in cache_spans),
        "campaign.run_s": total(spans, "campaign.run"),
        "campaign.resume_s": total(spans, "campaign.resume"),
        "campaign.self_s": self_of("campaign.run", "campaign.resume"),
        "audit.s": total(spans, "audit.campaign"),
        "service.summaries_s": total(spans, "service.summaries"),
        "service.sample_s": total(spans, "service.sample"),
        "service.fluid_s": total(spans, "service.fluid"),
        "event.window_s": total(spans, "event.window"),
        "core.pricing_s": total(spans, "core.pricing"),
        "trace.wall_s": rd.wall,
        "trace.unaccounted_ratio": (
            (rd.wall - sum(by_layer.values())) / rd.wall
        ),
    }
    for layer, seconds in by_layer.items():
        m[f"layer.{layer}_self_s"] = seconds
    m.update(rd.counters)
    checks.record(
        abs(m["trace.unaccounted_ratio"]) <= metrics.TRACE_SUM_BOUND,
        f"layer self times leave {m['trace.unaccounted_ratio']:.3f} of the "
        f"traced wall unaccounted (bound {metrics.TRACE_SUM_BOUND})",
        wrong=False,
    )
    return m


def _report(name, header, result, extra, checks, n_rounds) -> list[str]:
    import metrics

    better = metrics.better()
    lines = [f"# machine: {json.dumps(header, sort_keys=True)}"]
    lines.append(f"# {name}: {n_rounds} rounds; item = {metrics.ITEM[name]}")
    for key, metric in result["metrics"].items():
        lines.append(
            f"{key} = {metric['value']:.6g} {metric['unit']} "
            f"({better[key]} is better)"
        )
    for key, value in extra.items():
        lines.append(f"{key} = {value:.6g} (workload figure, median)")
    rate = checks.failed / max(checks.attempted, 1)
    lines.append(
        f"error_rate = {rate:.6g} ({checks.failed} failed / "
        f"{checks.attempted} attempted; {checks.wrong} wrong outputs)"
    )
    for message in dict.fromkeys(checks.messages):
        lines.append(f"# failed: {message}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=tuple(MODULES),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare()
    result, lines = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
