"""Self-test of the benchmark at toy sizes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that every per-layer metric of ``BENCHMARK.json`` has a
prediction in ``perfbench/metrics.py``; that every run prints every
metric it owes, with its unit and direction; and that a fixed seed
reproduces the check counts and every count metric of the traced run
(configs, cells, campaign attempts, requests, oracle failures, ...)
exactly.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import sys

SEED = 3
EXACT_UNITS = ("count", "B")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_catalogue(metrics) -> None:
    """Every per-layer metric has a prediction naming real metrics."""
    _check(
        set(metrics.PREDICTIONS) == set(metrics.per_layer_names()),
        "metrics.PREDICTIONS and BENCHMARK.json per_layer name different "
        "metrics",
    )
    ends = set(metrics.end_to_end_names()) | {"error_rate"}
    for name, (moves, on) in metrics.PREDICTIONS.items():
        _check(moves in ends, f"{name} moves unknown metric {moves!r}")
        _check(set(on) <= set(metrics.WORKLOADS), f"{name}: bad workloads")
    _check(set(metrics.ITEM) == set(metrics.WORKLOADS), "ITEM: workloads")
    for name, better in metrics.better().items():
        _check(better in ("lower", "higher"), f"{name}: no direction")


def check_result(result: dict, names: tuple, units: dict, label: str):
    _check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(result)}",
    )
    _check(result["attempted"] >= 1, f"{label}: nothing attempted")
    _check(
        tuple(result["metrics"]) == names,
        f"{label}: metrics {list(result['metrics'])} != {list(names)}",
    )
    for name, metric in result["metrics"].items():
        _check(metric["unit"] == units[name], f"{label}: {name} unit")
        _check(
            isinstance(metric["value"], (int, float)),
            f"{label}: {name} is not a number",
        )


def main() -> int:
    import run

    run._prepare()
    import metrics

    check_catalogue(metrics)
    units = metrics.units()
    better = metrics.better()
    for workload in metrics.WORKLOADS:
        for trace, names in (
            (False, metrics.end_to_end_names()),
            (True, metrics.per_layer_names()),
        ):
            label = f"{workload} trace={int(trace)}"
            results = []
            for _ in range(2):
                result, lines = run.measure(
                    workload, SEED, 0, trace, size="toy", max_rounds=1
                )
                check_result(result, names, units, label)
                for name in names:
                    _check(
                        any(
                            line.startswith(f"{name} = ")
                            and line.endswith(
                                f" {units[name]} ({better[name]} is better)"
                            )
                            for line in lines
                        ),
                        f"{label}: {name} not printed with unit and direction",
                    )
                results.append(result)
            a, b = results
            for key in ("attempted", "failed", "correct"):
                _check(a[key] == b[key], f"{label}: {key} not reproduced")
            for name in names:
                if units[name] in EXACT_UNITS:
                    _check(
                        a["metrics"][name] == b["metrics"][name],
                        f"{label}: count {name} not reproduced",
                    )
            print(f"ok {label}: {a['attempted']} checks, {a['failed']} failed")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
