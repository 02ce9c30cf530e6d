"""Resource tests: processor pool, storage accounting, network link."""

import pytest

from repro.sim.resources import NetworkLink, ProcessorPool, Storage


class TestProcessorPool:
    def test_acquire_release_accounting(self):
        pool = ProcessorPool(2)
        assert pool.available == 2
        pool.acquire(0.0)
        pool.acquire(1.0)
        assert pool.available == 0
        pool.release(3.0)
        assert pool.busy == 1
        pool.release(5.0)
        # busy-seconds: [0,1): 1 proc, [1,3): 2, [3,5): 1
        assert pool.busy_processor_seconds(0.0, 5.0) == pytest.approx(
            1 + 4 + 2
        )

    def test_over_acquire_raises(self):
        pool = ProcessorPool(1)
        pool.acquire(0.0)
        with pytest.raises(RuntimeError):
            pool.acquire(0.0)

    def test_over_release_raises(self):
        with pytest.raises(RuntimeError):
            ProcessorPool(1).release(0.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ProcessorPool(0)


class TestStorage:
    def test_add_remove_and_integral(self):
        s = Storage()
        s.add("a", 100.0, 0.0)
        s.add("b", 50.0, 2.0)
        s.remove("a", 4.0)
        s.remove("b", 6.0)
        # [0,2): 100, [2,4): 150, [4,6): 50
        assert s.byte_seconds(0.0, 6.0) == pytest.approx(200 + 300 + 100)
        assert s.peak_bytes() == 150.0
        assert s.n_objects == 0

    def test_duplicate_key_rejected(self):
        s = Storage()
        s.add("a", 1.0, 0.0)
        with pytest.raises(RuntimeError):
            s.add("a", 1.0, 1.0)

    def test_remove_missing_rejected(self):
        with pytest.raises(RuntimeError):
            Storage().remove("ghost", 0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Storage().add("a", -1.0, 0.0)

    def test_tuple_keys_for_copies(self):
        s = Storage()
        s.add(("t1", "f"), 10.0, 0.0)
        s.add(("t2", "f"), 10.0, 0.0)
        assert s.bytes_used == 20.0
        assert ("t1", "f") in s


class TestNetworkLink:
    def test_dedicated_transfers_do_not_queue(self):
        link = NetworkLink(100.0)  # 100 B/s, GridSim-style default
        t1 = link.request(200.0, now=0.0, direction="in")
        t2 = link.request(100.0, now=0.0, direction="in")
        assert t1 == pytest.approx(2.0)
        assert t2 == pytest.approx(1.0)  # concurrent, full bandwidth
        assert link.busy_until == pytest.approx(2.0)

    def test_fifo_serialization_when_contended(self):
        link = NetworkLink(100.0, contended=True)
        t1 = link.request(200.0, now=0.0, direction="in")
        t2 = link.request(100.0, now=0.0, direction="in")
        assert t1 == pytest.approx(2.0)
        assert t2 == pytest.approx(3.0)  # queued behind the first

    def test_idle_gap_resets_clock(self):
        link = NetworkLink(100.0, contended=True)
        link.request(100.0, now=0.0, direction="in")
        t = link.request(100.0, now=10.0, direction="out")
        assert t == pytest.approx(11.0)

    def test_byte_and_request_accounting(self):
        link = NetworkLink(10.0)
        link.request(5.0, 0.0, "in")
        link.request(7.0, 0.0, "in")
        link.request(3.0, 0.0, "out")
        assert link.total_bytes("in") == 12.0
        assert link.total_bytes("out") == 3.0
        assert link.total_requests("in") == 2
        assert link.total_requests("out") == 1

    def test_zero_size_transfer_is_instant(self):
        link = NetworkLink(10.0)
        assert link.request(0.0, 5.0, "in") == 5.0

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkLink(0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkLink(1.0).request(-1.0, 0.0, "in")


class TestReleaseSubscriptions:
    """The shared-pool waiter queue: who a release wakes, and in what order."""

    @staticmethod
    def _waiter(pool, name, calls, acquires=0):
        """A dispatcher that logs its wake-up and takes ``acquires`` CPUs."""
        ticket = pool.ticket()

        def dispatch():
            calls.append(name)
            for _ in range(acquires):
                pool.acquire(0.0)

        return ticket, dispatch

    def test_unsubscribe_stops_wakeups(self):
        pool = ProcessorPool(1)
        calls = []
        ticket, dispatch = self._waiter(pool, "a", calls)
        pool.join_waiters(ticket, dispatch)
        pool.acquire(0.0)
        pool.release(1.0)
        assert calls == ["a"]
        pool.leave_waiters(ticket)
        pool.acquire(2.0)
        pool.release(3.0)
        assert calls == ["a"]
        assert pool.wakeups == 1

    def test_unsubscribe_unknown_callback_is_noop(self):
        pool = ProcessorPool(1)
        pool.leave_waiters(pool.ticket())
        assert len(pool._waiters) == 0

    def test_joining_twice_is_rejected(self):
        pool = ProcessorPool(1)
        ticket = pool.ticket()
        pool.join_waiters(ticket, lambda: None)
        with pytest.raises(RuntimeError):
            pool.join_waiters(ticket, lambda: None)

    def test_waiters_woken_in_arrival_order(self):
        # Tickets are handed out in arrival order; joining the queue in a
        # different order must not change who is woken first.
        pool = ProcessorPool(1)
        calls = []
        waiters = [self._waiter(pool, name, calls) for name in "abc"]
        for ticket, dispatch in (waiters[2], waiters[0], waiters[1]):
            pool.join_waiters(ticket, dispatch)
        pool.acquire(0.0)
        pool.release(1.0)
        assert calls == ["a", "b", "c"]

    def test_scan_stops_once_the_pool_is_full(self):
        pool = ProcessorPool(2)
        calls = []
        for name in "ab":
            pool.join_waiters(*self._waiter(pool, name, calls, acquires=1))
        pool.acquire(0.0)
        pool.acquire(0.0)
        pool.release(1.0)
        # "a" takes the freed processor; "b" could do nothing.
        assert calls == ["a"]
        assert pool.available == 0
        assert pool.wakeups == 1

    def test_blocked_waiter_does_not_stop_the_scan(self):
        # "a" is blocked (e.g. its head task cannot reserve storage) and
        # takes nothing; the scan steps over it to "b".
        pool = ProcessorPool(1)
        calls = []
        pool.join_waiters(*self._waiter(pool, "a", calls))
        pool.join_waiters(*self._waiter(pool, "b", calls, acquires=1))
        pool.join_waiters(*self._waiter(pool, "c", calls, acquires=1))
        pool.acquire(0.0)
        pool.release(1.0)
        assert calls == ["a", "b"]
        assert len(pool._waiters) == 3

    def test_unsubscribe_during_notification_is_safe(self):
        # A woken waiter whose ready queue empties leaves the queue from
        # inside the scan; the waiter behind it must still be woken.
        pool = ProcessorPool(2)
        calls = []
        first = pool.ticket()

        def leaves():
            calls.append("x")
            pool.leave_waiters(first)

        pool.join_waiters(first, leaves)
        pool.join_waiters(*self._waiter(pool, "y", calls))
        pool.acquire(0.0)
        pool.release(1.0)
        assert calls == ["x", "y"]
        pool.acquire(2.0)
        pool.release(3.0)
        assert calls == ["x", "y", "y"]

    def test_finished_executors_unsubscribe_from_shared_pool(self):
        # Regression: finished service-mode executors used to stay
        # subscribed forever, so every release woke every dead
        # dispatcher (O(completed requests) per release).  Executors now
        # wait only while they hold ready tasks, so none is left behind.
        from repro.sim.engine import SimulationEngine
        from repro.sim.executor import ExecutionEnvironment, WorkflowExecutor
        from repro.workflow.dag import FileSpec, Task, Workflow

        def tiny(i):
            wf = Workflow(f"tiny{i}")
            wf.add_file(FileSpec("a", 10.0))
            wf.add_file(FileSpec("b", 10.0))
            wf.add_task(Task("t", 5.0, inputs=("a",), outputs=("b",)))
            wf.validate()
            return wf

        engine = SimulationEngine()
        pool = ProcessorPool(1)
        env = ExecutionEnvironment(n_processors=1, record_trace=False)
        executors = [
            WorkflowExecutor(
                tiny(i), env, engine=engine, processors=pool,
                start_time=float(i),
            )
            for i in range(3)
        ]
        for ex in executors:
            ex.start()
        # By t=2.5 all three are ready and the first still computes.
        engine.run(until=2.5)
        assert len(pool._waiters) == 2
        engine.run()
        assert all(ex.finished for ex in executors)
        assert len(pool._waiters) == 0

    def test_curve_tracking_can_be_disabled(self):
        pool = ProcessorPool(2, track_curve=False)
        pool.acquire(0.0)
        pool.release(5.0)
        assert pool.busy_curve is None
        with pytest.raises(RuntimeError):
            pool.busy_processor_seconds(0.0, 5.0)
