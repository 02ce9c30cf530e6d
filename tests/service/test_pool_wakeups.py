"""Shared-pool wake-ups: the waiter queue is exact and cheap.

A processor release wakes only dispatchers that hold ready tasks, in
arrival order, and stops once the pool is full.  The reference below is
the wake-everyone rule it replaced; both must give every request the
same schedule, bit for bit.  The ``ServiceSimulator``-level tests run
under ``REPRO_SIM_KERNEL`` = ``event`` and ``auto``, so the lowered
shared-pool replay is held to the same reference as the event engine.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.service.simulator as service_simulator
from repro.montage import montage_1_degree
from repro.service.arrivals import ServiceRequest
from repro.service.simulator import ServiceSimulator
from repro.sim.engine import SimulationEngine
from repro.sim.executor import ExecutionEnvironment, WorkflowExecutor
from repro.sim.kernel import KERNEL_ENV
from repro.sim.resources import ProcessorPool
from repro.workflow.generators import random_layered_workflow

BW = 1.25e6
MODES = ("regular", "cleanup", "remote-io")
#: ``REPRO_SIM_KERNEL`` values the service-level tests run under.
KERNELS = ("event", "auto")


class BroadcastPool(ProcessorPool):
    """Reference pool: every release wakes every subscribed dispatcher.

    Executors subscribe when they are built (:class:`BroadcastExecutor`)
    and are woken in subscription order on every release, whether or not
    they hold ready tasks and however full the pool already is.  The
    executors' own waiter-queue calls are ignored, so the reference does
    not depend on them.
    """

    def __init__(self, n_processors, track_curve=True):
        super().__init__(n_processors, track_curve)
        self.subscribers = []

    def join_waiters(self, ticket, dispatch):
        pass

    def leave_waiters(self, ticket):
        pass

    def release(self, now):
        if self._busy <= 0:
            raise RuntimeError("release on an idle processor pool")
        self._busy -= 1
        if self.busy_curve is not None:
            self.busy_curve.add(now, -1.0)
        for dispatch in tuple(self.subscribers):
            self.wakeups += 1
            dispatch()


class BroadcastExecutor(WorkflowExecutor):
    """An executor that subscribes to a :class:`BroadcastPool` when built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.processors.subscribers.append(self._dispatch)


def _serve(requests, p, mode, broadcast, kernel="event"):
    """Serve under ``REPRO_SIM_KERNEL=kernel`` (the reference: ``event``).

    Under ``event`` both runs keep their traces, as they always did.
    Under ``auto`` both run untraced, so eligible streams leave the
    event engine for the kernel; the broadcast reference is pinned to
    the event engine either way.
    """
    with mock.patch.dict(
        os.environ, {KERNEL_ENV: "event" if broadcast else kernel}
    ), mock.patch.multiple(
        service_simulator,
        ProcessorPool=BroadcastPool if broadcast else ProcessorPool,
        WorkflowExecutor=BroadcastExecutor if broadcast else WorkflowExecutor,
    ):
        return ServiceSimulator(
            p, mode, bandwidth_bytes_per_sec=BW,
            record_trace=kernel == "event",
        ).run(requests)


def _assert_same_service(new, ref):
    assert [o.request.request_id for o in new.outcomes] == [
        o.request.request_id for o in ref.outcomes
    ]
    assert [o.finished_at for o in new.outcomes] == [
        o.finished_at for o in ref.outcomes
    ]
    assert [o.result for o in new.outcomes] == [o.result for o in ref.outcomes]
    assert new.pool_busy_curve == ref.pool_busy_curve


# Three small classes, each at least three tasks wide, so a pool of one
# or two processors is narrower than any single request.
WORKFLOWS = [
    random_layered_workflow(2, 3, seed=11, mean_runtime=40.0),
    random_layered_workflow(3, 4, seed=23, mean_runtime=60.0),
    random_layered_workflow(2, 3, seed=37, mean_runtime=30.0),
]

streams = st.lists(
    st.tuples(
        st.floats(0.0, 600.0, allow_nan=False),  # arrival time
        st.integers(0, len(WORKFLOWS) - 1),      # request class
    ),
    min_size=1,
    max_size=6,
)


def _requests(stream):
    return [
        ServiceRequest(f"r{i}", WORKFLOWS[k], t)
        for i, (t, k) in enumerate(stream)
    ]


@pytest.mark.property
@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(stream=streams, p=st.integers(1, 2), mode=st.sampled_from(MODES))
def test_waiter_queue_matches_broadcast(kernel, stream, p, mode):
    requests = _requests(stream)
    new = _serve(requests, p, mode, broadcast=False, kernel=kernel)
    ref = _serve(requests, p, mode, broadcast=True, kernel=kernel)
    assert ref.path == "event"
    assert new.path == (
        "kernel" if kernel == "auto" and mode != "remote-io" else "event"
    )
    _assert_same_service(new, ref)
    assert new.pool_wakeups <= ref.pool_wakeups


def _run_shared(requests, env, mode, pool, executor_cls):
    """Executors on one engine and pool, built the way the service does."""
    engine = SimulationEngine()
    executors = []
    for request in sorted(requests, key=lambda r: r.arrival_time):
        ex = executor_cls(
            request.workflow, env, mode, engine=engine, processors=pool,
            start_time=request.arrival_time,
        )
        ex.start()
        executors.append(ex)
    engine.run()
    return [
        (ex.finished, ex.result() if ex.finished else None)
        for ex in executors
    ]


@pytest.mark.property
@settings(max_examples=30, deadline=None)
@given(
    stream=streams,
    p=st.integers(1, 2),
    mode=st.sampled_from(MODES),
    capacity_share=st.sampled_from((None, 0.4, 0.7)),
    boot=st.sampled_from((0.0, 150.0)),
)
def test_blocked_waiters_match_broadcast(stream, p, mode, capacity_share, boot):
    """Storage-blocked and booting waiters: same schedules as broadcast.

    Storage is per request, so with a finite capacity a waiter can be
    woken into a free processor and still take nothing; the scan must
    step over it exactly as the broadcast did.
    """
    requests = _requests(stream)
    capacity = None
    if capacity_share is not None:
        capacity = capacity_share * max(
            sum(f.size_bytes for f in wf.files.values()) for wf in WORKFLOWS
        )
    env = ExecutionEnvironment(
        n_processors=p, bandwidth_bytes_per_sec=BW,
        storage_capacity_bytes=capacity, compute_ready_seconds=boot,
    )
    new_pool, ref_pool = ProcessorPool(p), BroadcastPool(p)
    new = _run_shared(requests, env, mode, new_pool, WorkflowExecutor)
    ref = _run_shared(requests, env, mode, ref_pool, BroadcastExecutor)
    assert new == ref
    assert new_pool.busy_curve == ref_pool.busy_curve
    assert new_pool.wakeups <= ref_pool.wakeups


# Twelve 1-degree requests, 45 s apart, on 8 processors (cleanup mode,
# the paper's 10 Mbps link): the pool stays ~98% busy.  Finish times
# were computed with the wake-everyone pool and must not move.
SATURATED_FINISH_TIMES = [
    3499.2382415999987,
    6028.8382416,
    8456.438241599999,
    11088.038241600007,
    13597.238241600011,
    16096.238241600016,
    18656.438241600008,
    21155.43824160001,
    23695.2382416,
    26214.6382416,
    28754.43824159999,
    31018.8382416,
]


@pytest.fixture(scope="module", params=KERNELS)
def saturated_1_degree(request):
    wf = montage_1_degree()
    requests = [ServiceRequest(f"r{i:02d}", wf, 45.0 * i) for i in range(12)]
    with mock.patch.dict(os.environ, {KERNEL_ENV: request.param}):
        result = ServiceSimulator(8, "cleanup").run(requests)
    assert result.path == ("kernel" if request.param == "auto" else "event")
    return result


def test_saturated_1_degree_finish_times_are_pinned(saturated_1_degree):
    finish = [o.finished_at for o in saturated_1_degree.outcomes]
    assert finish == SATURATED_FINISH_TIMES


def test_saturated_run_wakes_at_most_once_per_release(saturated_1_degree):
    # Every completed execution releases one processor (no failures).
    releases = sum(
        o.result.n_task_executions for o in saturated_1_degree.outcomes
    )
    assert saturated_1_degree.peak_concurrency() == 8
    assert 0 < saturated_1_degree.pool_wakeups <= releases
