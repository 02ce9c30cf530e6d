"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end, parent and the run ID shared by
every span of one run.  Spans stay in memory and are written out as
JSONL when the run ends.  A span's self time is its duration minus the
durations of its child spans.  Children are either nested calls (the
timing cache's blob I/O inside ``run_grid``) or *replays*: the same
inputs fed straight into the next layer down after the entry point
returned, recorded under the entry point's span with :meth:`Tracer.under`.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.sweep.cache import SimCache

from metrics import LAYERS


class Tracer:
    """Collects spans; ``span`` nests by call, ``under`` re-parents replays."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def under(self, parent: dict):
        """Record the spans opened inside as children of ``parent``."""
        saved, self._stack = self._stack, [parent["id"]]
        try:
            yield
        finally:
            self._stack = saved

    def add(self, name: str, parent: dict, seconds: float, **attrs) -> dict:
        """A child span whose duration the package measured itself.

        The package reports only the duration, so the span is placed
        after its parent's previous derived child and marked ``derived``.
        """
        start = parent.setdefault("_cursor", parent["start"])
        parent["_cursor"] = start + seconds
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": parent["id"],
            "name": name,
            "start": start,
            "end": start + seconds,
            "derived": True,
            **attrs,
        }
        self.spans.append(rec)
        return rec

    def write_jsonl(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                rec = {k: v for k, v in s.items() if not k.startswith("_")}
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """The untraced run: every span is a no-op."""

    enabled = False

    def span(self, name: str, **attrs):
        return nullcontext({})

    def under(self, parent: dict):
        return nullcontext()

    def add(self, name: str, parent: dict, seconds: float, **attrs) -> dict:
        return {}


@contextmanager
def counting(targets: dict[str, tuple[object, str]]):
    """Count calls to each ``owner.attr`` of ``targets`` inside the block.

    Yields a :class:`~collections.Counter` keyed like ``targets``.  The
    counting wrappers replace the attributes for the block only.  A
    target the package no longer has raises ``AttributeError``, so a
    renamed entry point fails the run instead of reading 0.
    """
    calls: Counter = Counter()
    saved = []
    try:
        for key, (owner, attr) in targets.items():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _counted(original, calls, key))
        yield calls
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _counted(fn, calls: Counter, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span in ``spans`` (a closed subtree set)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    if layer not in LAYERS:
        raise ValueError(f"span {name!r} names no layer")
    return layer


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[layer_of(s["name"])] += own[s["id"]]
    return totals


def total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


class TimingSimCache(SimCache):
    """A :class:`SimCache` that records a span around every blob access.

    Passed through the package's public ``cache=`` arguments, so the
    checkpoint writes of ``run_grid`` and the reads of a resumed campaign
    are timed where they happen.
    """

    def __init__(self, tracer: Tracer, directory=None) -> None:
        super().__init__(directory)
        self._tracer = tracer

    def get_blob(self, key):
        with self._tracer.span("cache.get_blob") as rec:
            payload = super().get_blob(key)
        rec["bytes"] = _payload_bytes(payload) if payload is not None else 0
        return payload

    def put_blob(self, key, payload) -> None:
        with self._tracer.span("cache.put_blob") as rec:
            super().put_blob(key, payload)
        rec["bytes"] = _payload_bytes(payload)


def _payload_bytes(payload) -> int:
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
