"""Shared plumbing: set-up timing, memory, machine header, the round loop."""

from __future__ import annotations

import gc
import hashlib
import heapq
import importlib.util
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: caches and provenance logs, removed
#: at the end of each run.
TMP = ROOT / ".perfbench_tmp"
#: Span files written by traced runs.
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 7
#: Fresh interpreters behind each ``import.*`` figure of a traced run.
IMPORT_REPEATS = 3

#: What the set-up reference interpreter runs: standard-library imports
#: only, in an isolated interpreter (``-I``), so a change to the program
#: cannot move its time.
SETUP_REFERENCE = (
    "import json, decimal, email.mime.text, http.client, asyncio, "
    "unittest, argparse, xml.dom.minidom, logging.handlers, sqlite3, "
    "csv, zipfile, tarfile"
)
#: Time of :data:`SETUP_REFERENCE` on the 2-CPU machine the benchmark
#: was written on, in a quiet period.
SETUP_REFERENCE_SECONDS = 0.15


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )


def _python_seconds(args: list[str]) -> float:
    t0 = time.perf_counter()
    _run_python(args)
    return time.perf_counter() - t0


def _import_line(modules: tuple[str, ...]) -> str:
    return "import " + ", ".join(modules)


def setup_seconds(modules: tuple[str, ...]) -> tuple[float, float, float]:
    """Set-up time: a fresh interpreter importing ``modules``.

    Returns the median over :data:`SETUP_REPEATS` interpreters at the
    reference host speed, the median wall clock, and the median time of
    the reference interpreter.  The interpreters alternate with
    reference interpreters (:data:`SETUP_REFERENCE`), and each is scaled
    by ``SETUP_REFERENCE_SECONDS / mean(reference before, reference
    after)``.  The reference does the same kind of work (start-up,
    reading and executing modules) in the same kind of process, so it
    slows down with the host much as the set-up does.
    """
    code = _import_line(modules)
    reference = ["-I", "-c", SETUP_REFERENCE]
    before = _python_seconds(reference)
    scaled, walls, refs = [], [], [before]
    for _ in range(SETUP_REPEATS):
        wall = _python_seconds(["-c", code])
        after = _python_seconds(reference)
        walls.append(wall)
        refs.append(after)
        scaled.append(wall * SETUP_REFERENCE_SECONDS / ((before + after) / 2))
        before = after
    return (
        statistics.median(scaled),
        statistics.median(walls),
        statistics.median(refs),
    )


_PACKAGES = ("numpy", "scipy", "repro")


def import_breakdown(modules: tuple[str, ...]) -> dict[str, float]:
    """Per-package import self time and bare interpreter start-up.

    Each value is the median of :data:`IMPORT_REPEATS` fresh interpreters;
    import times come from ``-X importtime``, summed by top-level
    package (everything else, the standard library included, is
    ``other``).
    """
    samples: dict[str, list[float]] = {
        f"import.{p}_s": [] for p in (*_PACKAGES, "other")
    }
    samples["setup.interpreter_s"] = []
    for _ in range(IMPORT_REPEATS):
        samples["setup.interpreter_s"].append(_python_seconds(["-c", "pass"]))
        proc = _run_python(["-X", "importtime", "-c", _import_line(modules)])
        sums = dict.fromkeys(_PACKAGES, 0.0)
        other = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _cum, name = line[len("import time:"):].split("|")
            top = name.strip().split(".", 1)[0]
            if top in sums:
                sums[top] += int(self_us) / 1e6
            else:
                other += int(self_us) / 1e6
        for p in _PACKAGES:
            samples[f"import.{p}_s"].append(sums[p])
        samples["import.other_s"].append(other)
    return {k: statistics.median(v) for k, v in samples.items()}


def machine_header(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class PeakMemory:
    """Peak memory of this process and its live children (grid workers).

    While the sampler runs it polls, every ``interval`` seconds, the
    proportional set size (``Pss`` in ``/proc/<pid>/smaps_rollup``) of
    this process and of every child listed in
    ``/proc/self/task/*/children``, and keeps the largest sum.  A page
    shared by forked workers is split between them, so it is counted
    once.  The peak is that sum or this process's own peak RSS, whichever
    is larger: the own peak catches a spike between two polls.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self._interval = interval
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        while not self._stop.wait(self._interval):
            live = sum(_pss_kb(pid) for pid in ("self", *_child_pids()))
            self._peak_kb = max(self._peak_kb, live)

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self._peak_kb) / 1024.0


def _child_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return pids


def _pss_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rounds(seconds: float, max_rounds: int | None):
    """Round indices until ``seconds`` have passed (at least one round).

    Garbage is collected before each round, so one round's cyclic
    garbage is neither collected inside the next round's timing nor
    counted in its memory peak.
    """
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        if max_rounds is not None and r >= max_rounds:
            return
        gc.collect()
        yield r
        r += 1


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Checks:
    """Checked operations: ``attempted``, ``failed`` and the wrong outputs.

    A failed check either found a wrong output (``wrong``: a result that
    disagrees with its oracle, an audit violation, a provenance mismatch,
    a fluid window outside tolerance) or could not be made because a
    call raised; ``messages`` keeps one line per failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str = "", wrong: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            self.messages.append(message)


class Round:
    """One user-level run of a workload.

    ``items`` work items took ``primary_s`` seconds of the round's
    ``wall``; ``extra`` holds the workload's own end-to-end figures
    (printed, not gated) and ``counters`` its per-layer counts.
    """

    def __init__(self) -> None:
        self.items = 0
        self.primary_s = 0.0
        self.wall = 0.0
        #: host-speed factor: a duration times this reads it at the
        #: reference host speed (see :func:`speed_factor`)
        self.speed = 1.0
        self.extra: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        #: spans opened by the round (traced rounds only)
        self.spans: list[dict] = []


#: Median time of :func:`_reference_work` on the 2-CPU machine the
#: benchmark was written on, in a quiet period.  Timings are reported at
#: this host speed (see :class:`HostSpeed`).
REFERENCE_SECONDS = 0.045


def _reference_work() -> int:
    """A fixed heap-and-dict workload in pure Python, like the simulators'.

    It does not touch the package, and :meth:`HostSpeed.sample` times it
    with the garbage collector off, so that no collection walks the
    objects the package keeps alive: only the host's speed can change
    its time.
    """
    heap = [(float(i % 97), i) for i in range(2000)]
    heapq.heapify(heap)
    state: dict[int, float] = {}
    events = []
    n = 0
    while heap and n < 30_000:
        t, i = heapq.heappop(heap)
        state[i % 512] = state.get(i % 512, 0.0) + t
        events.append({"t": t, "i": i})
        if n < 28_000:
            heapq.heappush(heap, (t + (i * 7919 % 101) / 10.0, i + 1))
        n += 1
    return len(events)


class HostSpeed:
    """Host speed over one run, from a reference loop timed between rounds.

    The machines this runs on share their CPUs with other tenants, and
    their speed drifts by tens of percent within seconds and over
    minutes.  The reference loop slows down with the host, so each timed
    duration is scaled by the samples taken next to it (see
    :func:`speed_factor`): what it would read at the reference host speed.
    """

    def __init__(self, repeats: int = 3) -> None:
        self._repeats = repeats
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the reference loop; returns this sample's median."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self._repeats):
                t0 = time.perf_counter()
                _reference_work()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(times)
        return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scale for a duration timed between two host-speed samples.

    The host drifts within seconds, so a duration is scaled by the
    samples taken right before and right after it, not by the run's
    median speed.
    """
    return REFERENCE_SECONDS / ((before + after) / 2)
