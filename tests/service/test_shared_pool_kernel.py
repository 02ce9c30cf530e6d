"""The lowered shared-pool replay equals the event engine, whole result.

``ServiceSimulator.run`` replays untraced regular and cleanup streams
with FIFO ordering on :func:`repro.sim.kernel.run_shared_pool` unless
``REPRO_SIM_KERNEL=event``.  Every test here runs the same stream both
ways and compares the two ``ServiceResult`` objects with ``==``:
per-request results and finish times, horizon, the pool busy curve and
the wake-up count.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.montage import montage_1_degree
from repro.service.arrivals import ServiceRequest
from repro.service.scale import montage_traffic, sample_traffic
from repro.service.simulator import ServiceSimulator
from repro.sim.executor import ExecutionEnvironment
from repro.sim.kernel import KERNEL_ENV, run_shared_pool
from repro.sim.scheduler import LONGEST_FIRST
from repro.workflow.dag import FileSpec, Task, Workflow
from repro.workflow.generators import fork_join_workflow, random_layered_workflow

BW = 1.25e6


def _serve(kernel, requests, p, mode="cleanup", **kwargs):
    with mock.patch.dict("os.environ", {KERNEL_ENV: kernel}):
        return ServiceSimulator(p, mode, **kwargs).run(requests)


def _both(requests, p, mode="cleanup", **kwargs):
    """(event result, auto result), the latter checked to be the kernel's."""
    event = _serve("event", requests, p, mode, **kwargs)
    fast = _serve("auto", requests, p, mode, **kwargs)
    assert (event.path, fast.path) == ("event", "kernel")
    return event, fast


# --------------------------------------------------------------------- #
# paper scale: the service-1e6 validation windows
# --------------------------------------------------------------------- #
#: Event mean miss response of the five windows of seed 1, round 0.
WINDOW_MEANS = [
    2924.6167069190733,
    1236.2031974612885,
    929.1527150841923,
    928.8382416,
    929.4827160116824,
]


@pytest.fixture(scope="module")
def service_1e6_windows():
    """The five one-hour miss streams ``validate_fluid`` replays."""
    spec = montage_traffic(
        1e6, horizon_months=1.0, degrees=(1.0,), n_regions=50_000,
        zipf_exponent=1.0, seed=1000,
    )
    sample = sample_traffic(spec)
    workflows = [c.workflow for c in spec.mix]
    windows = []
    for i in range(5):
        window = sample.window((i + 0.5) * sample.horizon / 6, 3600.0)
        windows.append([
            ServiceRequest(f"win-{j:06d}", workflows[int(k)], float(t))
            for j, (t, k) in enumerate(zip(window.times, window.class_idx))
        ])
    return spec, windows


def _check_window(spec, requests, mean):
    event, fast = _both(
        requests, 512, spec.data_mode,
        bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
    )
    assert fast == event
    assert fast.mean_response_time() == event.mean_response_time() == mean


def test_busiest_window_matches_event_engine(service_1e6_windows):
    spec, windows = service_1e6_windows
    assert len(windows[0]) == 190
    _check_window(spec, windows[0], WINDOW_MEANS[0])


@pytest.mark.slow
@pytest.mark.parametrize("i", range(5))
def test_every_window_matches_event_engine(service_1e6_windows, i):
    spec, windows = service_1e6_windows
    _check_window(spec, windows[i], WINDOW_MEANS[i])


# --------------------------------------------------------------------- #
# property: mixed classes, tied arrivals, pools narrower than any class
# --------------------------------------------------------------------- #
#: Stage-ins take 1 s and tasks 59 s, so stage-ins, completions and
#: stage-outs land on whole minutes, tying with the arrivals below.
MINUTE_FORK_JOIN = fork_join_workflow(3, runtime=59.0, file_size=BW)


def _minute_generators() -> Workflow:
    """Three input-free 60 s tasks feeding a 59 s join.

    Its tasks are ready the instant the request arrives, and its
    completions and stage-out land on whole minutes, so an arrival can
    meet a full pool and a release at the same time.
    """
    wf = Workflow("generators")
    for i in range(3):
        wf.add_file(FileSpec(f"mid{i}", BW))
        wf.add_task(Task(f"g{i}", 60.0, inputs=(), outputs=(f"mid{i}",)))
    wf.add_file(FileSpec("out", BW))
    wf.add_task(
        Task("join", 59.0, inputs=("mid0", "mid1", "mid2"), outputs=("out",))
    )
    wf.validate()
    return wf


MINUTE_GENERATORS = _minute_generators()

layered_classes = st.lists(
    st.builds(
        random_layered_workflow,
        n_layers=st.integers(1, 3),
        width=st.integers(3, 4),
        seed=st.integers(0, 10_000),
        mean_runtime=st.sampled_from((30.0, 90.0)),
    ),
    min_size=1,
    max_size=3,
)


@pytest.mark.property
@settings(max_examples=60, deadline=None)
@given(
    layered=layered_classes,
    minute_classes=st.sampled_from((
        (), (MINUTE_FORK_JOIN,), (MINUTE_GENERATORS,),
        (MINUTE_FORK_JOIN, MINUTE_GENERATORS),
    )),
    stream=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        min_size=1,
        max_size=8,
    ),
    p=st.integers(1, 2),
    mode=st.sampled_from(("regular", "cleanup")),
)
def test_kernel_matches_event_engine(layered, minute_classes, stream, p, mode):
    classes = list(minute_classes) + layered
    requests = [
        ServiceRequest(f"r{i}", classes[k % len(classes)], 60.0 * slot)
        for i, (slot, k) in enumerate(stream)
    ]
    event, fast = _both(requests, p, mode, bandwidth_bytes_per_sec=BW)
    assert fast == event


@pytest.mark.parametrize(
    "workflow, p, per_minute",
    [
        (MINUTE_FORK_JOIN, 2, 2),
        (MINUTE_GENERATORS, 2, 2),
        # A full pool and nobody waiting when the next request arrives:
        # whether its _begin or the releases come first decides who
        # gets the freed processors.
        (MINUTE_GENERATORS, 3, 1),
    ],
    ids=["fork-join", "generators", "generators-full-pool"],
)
def test_arrivals_tie_with_completions(workflow, p, per_minute):
    # Arrivals every minute meet stage-in, completion and stage-out
    # events at the same instants: the arrivals' _begin events, queued
    # first, must win every tie on both paths.
    requests = [
        ServiceRequest(f"r{i}", workflow, 60.0 * (i // per_minute))
        for i in range(8)
    ]
    event, fast = _both(requests, p, "regular", bandwidth_bytes_per_sec=BW)
    assert fast == event
    assert event.pool_wakeups > 0


# --------------------------------------------------------------------- #
# routing and the result's path
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", ["auto", "fast"])
@pytest.mark.parametrize("mode", ["regular", "cleanup"])
def test_eligible_runs_take_the_kernel(kernel, mode):
    requests = [ServiceRequest("r0", MINUTE_FORK_JOIN, 0.0)]
    result = _serve(kernel, requests, 2, mode, bandwidth_bytes_per_sec=BW)
    assert result.path == "kernel"
    assert result == _serve("event", requests, 2, mode,
                            bandwidth_bytes_per_sec=BW)


@pytest.mark.parametrize("kernel", ["auto", "fast"])
@pytest.mark.parametrize(
    "mode, kwargs",
    [
        ("remote-io", {}),
        ("cleanup", {"ordering": LONGEST_FIRST}),
        ("cleanup", {"link_contention": True}),
        ("cleanup", {"record_trace": True}),
    ],
    ids=["remote-io", "longest-first", "contended", "traced"],
)
def test_other_configurations_stay_on_the_event_engine(kernel, mode, kwargs):
    requests = [ServiceRequest("r0", MINUTE_FORK_JOIN, 0.0)]
    result = _serve(kernel, requests, 2, mode, **kwargs)
    assert result.path == "event"


@pytest.mark.parametrize(
    "mode, kwargs",
    [
        ("remote-io", {}),
        ("cleanup", {"storage_capacity_bytes": 1e9}),
        ("cleanup", {"link_contention": True}),
        ("cleanup", {"record_trace": True}),
        ("cleanup", {"compute_ready_seconds": 30.0}),
    ],
    ids=["remote-io", "capacity", "contended", "traced", "boot-delay"],
)
def test_kernel_rejects_what_it_does_not_model(mode, kwargs):
    env = ExecutionEnvironment(2, **{"record_trace": False, **kwargs})
    with pytest.raises(ValueError):
        run_shared_pool([ServiceRequest("r0", MINUTE_FORK_JOIN, 0.0)], env, mode)


def test_empty_stream_on_both_paths():
    event, fast = _both([], 4)
    assert fast == event
    assert fast.horizon == 0.0 and fast.n_requests == 0


# --------------------------------------------------------------------- #
# regression: requests that share an id
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", ["event", "auto"])
def test_shared_request_ids_keep_their_own_finish_times(kernel):
    wf = montage_1_degree()
    requests = [
        ServiceRequest("a", wf, 0.0),
        ServiceRequest("a", wf, 5000.0),
    ]
    result = _serve(kernel, requests, 8, "cleanup")
    first, second = result.outcomes
    assert first.finished_at < second.request.arrival_time
    for outcome in result.outcomes:
        assert outcome.response_time == outcome.result.makespan
    assert result.horizon == second.finished_at
