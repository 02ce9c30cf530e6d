"""Exact, hand-computed scenarios for the three data-management modes.

All scenarios use a 10 Mbps link (1.25e6 B/s) and files of 1.25 MB so that
every transfer takes exactly 1 second; runtimes are 100 s.  The expected
makespans, byte counts and storage integrals below are worked out by hand
in the comments.
"""

import pytest

from repro.sim.datamanager import DataMode, _event_tables, make_data_manager
from repro.sim.executor import simulate
from repro.workflow.dag import FileSpec, Task
from repro.workflow.generators import (
    chain_workflow,
    example_figure3_workflow,
    fork_join_workflow,
)

BW = 1.25e6  # 10 Mbps
F = 1.25e6  # file size: 1 second per transfer


def sim(wf, p, mode, **kw):
    return simulate(wf, p, mode, bandwidth_bytes_per_sec=BW, **kw)


class TestRegularChain:
    """chain of 2 tasks: f0 -> t0 -> f1 -> t1 -> f2."""

    @pytest.fixture(scope="class")
    def result(self):
        return sim(chain_workflow(2, runtime=100.0, file_size=F), 1, "regular")

    def test_makespan(self, result):
        # stage-in f0 [0,1]; t0 [1,101]; t1 [101,201]; stage-out f2
        # [201,202].
        assert result.makespan == pytest.approx(202.0)

    def test_transfers(self, result):
        assert result.bytes_in == pytest.approx(F)
        assert result.bytes_out == pytest.approx(F)
        assert result.n_transfers_in == 1
        assert result.n_transfers_out == 1

    def test_storage_byte_seconds(self, result):
        # f0 resident [1,202] = 201 s; f1 [101,202] = 101 s; f2 [201,202]
        # = 1 s; all deleted together at 202.
        assert result.storage_byte_seconds == pytest.approx((201 + 101 + 1) * F)

    def test_peak_storage(self, result):
        assert result.peak_storage_bytes == pytest.approx(3 * F)

    def test_cpu_accounting(self, result):
        assert result.compute_seconds == pytest.approx(200.0)
        assert result.cpu_busy_seconds == pytest.approx(200.0)


class TestCleanupChain:
    @pytest.fixture(scope="class")
    def result(self):
        return sim(chain_workflow(2, runtime=100.0, file_size=F), 1, "cleanup")

    def test_makespan_unchanged_by_cleanup(self, result):
        assert result.makespan == pytest.approx(202.0)

    def test_storage_byte_seconds(self, result):
        # f0 deleted when t0 completes (101): resident [1,101] = 100 s;
        # f1 deleted at 201: 100 s; f2 deleted when staged out at 202: 1 s.
        assert result.storage_byte_seconds == pytest.approx(201 * F)

    def test_transfers_identical_to_regular(self, result):
        # The paper: "the amount of data transfer in the Regular and the
        # Cleanup mode are the same".
        assert result.bytes_in == pytest.approx(F)
        assert result.bytes_out == pytest.approx(F)


class TestRemoteIOChain:
    @pytest.fixture(scope="class")
    def result(self):
        return sim(chain_workflow(2, runtime=100.0, file_size=F), 1, "remote-io")

    def test_makespan(self, result):
        # t0: stage-in f0 [0,1], run [1,101], stage-out f1 [101,102];
        # t1 eligible at 102: stage-in f1 [102,103], run [103,203],
        # stage-out f2 [203,204].
        assert result.makespan == pytest.approx(204.0)

    def test_transfers_count_every_hop(self, result):
        # f0 and f1 staged in; f1 and f2 staged out.
        assert result.bytes_in == pytest.approx(2 * F)
        assert result.bytes_out == pytest.approx(2 * F)

    def test_storage_minimal(self, result):
        # f0 copy [1,101]; f1-out [101,102]; f1 copy [103,203];
        # f2-out [203,204] -> 202 file-seconds.
        assert result.storage_byte_seconds == pytest.approx(202 * F)

    def test_storage_empty_at_end(self, result):
        assert result.storage_curve.final_value() == pytest.approx(0.0)


class TestForkJoinParallel:
    def test_regular_two_processors(self):
        # Dedicated link (GridSim-style): in0 and in1 both arrive at t=1;
        # w0, w1 [1,101]; join [101,201]; stage-out [201,202].
        r = sim(fork_join_workflow(2, runtime=100.0, file_size=F), 2, "regular")
        assert r.makespan == pytest.approx(202.0)

    def test_regular_two_processors_contended_link(self):
        # FIFO link ablation: in0 [0,1], in1 [1,2]; w0 [1,101],
        # w1 [2,102]; join [102,202]; stage-out [202,203].
        r = simulate(
            fork_join_workflow(2, runtime=100.0, file_size=F), 2, "regular",
            bandwidth_bytes_per_sec=BW, link_contention=True,
        )
        assert r.makespan == pytest.approx(203.0)

    def test_regular_one_processor_serializes(self):
        # w0 [1,101], w1 [101,201], join [201,301], out [301,302].
        r = sim(fork_join_workflow(2, runtime=100.0, file_size=F), 1, "regular")
        assert r.makespan == pytest.approx(302.0)

    def test_extra_processors_do_not_help(self):
        wide = fork_join_workflow(4, runtime=100.0, file_size=F)
        r4 = sim(wide, 4, "regular")
        r99 = sim(wide, 99, "regular")
        assert r4.makespan == pytest.approx(r99.makespan)

    def test_remote_io_shares_link_fairly(self):
        # Two workers on 2 procs, remote I/O: each stages in its own input
        # (serialized on the link), runs, stages out its mid; the join then
        # stages in both mids.
        r = sim(fork_join_workflow(2, runtime=100.0, file_size=F), 2, "remote-io")
        # in: in0, in1, mid0, mid1; out: mid0, mid1, out
        assert r.bytes_in == pytest.approx(4 * F)
        assert r.bytes_out == pytest.approx(3 * F)


class TestFigure3Modes:
    """The paper's Figure 3 workflow under all three modes."""

    @pytest.fixture(scope="class")
    def wf(self):
        return example_figure3_workflow(runtime=100.0, file_size=F)

    def test_regular_transfer_volumes(self, wf):
        r = sim(wf, 7, "regular")
        assert r.bytes_in == pytest.approx(F)  # only file a
        assert r.bytes_out == pytest.approx(2 * F)  # g and h

    def test_remote_transfer_volumes(self, wf):
        r = sim(wf, 7, "remote-io")
        # ins: a; b twice (tasks 1,2); c twice (3,4); d once; e,f,h for
        # task 6 -> 9 file movements in.
        assert r.bytes_in == pytest.approx(9 * F)
        # outs: every produced file once: b,c,d,e,f,h,g -> 7.
        assert r.bytes_out == pytest.approx(7 * F)

    def test_cleanup_beats_regular_storage(self, wf):
        reg = sim(wf, 7, "regular")
        cln = sim(wf, 7, "cleanup")
        assert cln.storage_byte_seconds < reg.storage_byte_seconds
        assert cln.makespan == pytest.approx(reg.makespan)

    def test_mode_ordering(self, wf):
        """cleanup <= regular on storage; remote moves the most data.

        (Remote I/O's storage advantage is a property of wide workflows
        with heavily shared files, like Montage — Figure 7; it does not
        hold for this tiny example, where per-task input copies resident
        for whole runtimes outweigh the shared files.  The Montage-level
        ranking is asserted in tests/sim/test_integration_montage.py.)
        """
        rem = sim(wf, 7, "remote-io")
        cln = sim(wf, 7, "cleanup")
        reg = sim(wf, 7, "regular")
        assert cln.storage_byte_seconds <= reg.storage_byte_seconds
        assert rem.bytes_in > reg.bytes_in
        assert rem.bytes_out > reg.bytes_out


class TestFactory:
    def test_make_by_string_and_enum(self):
        assert make_data_manager("regular").mode is DataMode.REGULAR
        assert make_data_manager(DataMode.CLEANUP).mode is DataMode.CLEANUP
        assert make_data_manager("remote-io").mode is DataMode.REMOTE_IO

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_data_manager("turbo")


class TestEventTables:
    """Per-workflow tables are shared across runs but never go stale."""

    @staticmethod
    def _extend(wf):
        # f2 stops being a net output: t2 consumes it, together with a
        # new input g, and writes the new output f3.
        wf.add_file(FileSpec("g", F))
        wf.add_file(FileSpec("f3", F))
        wf.add_task(Task("t2", 100.0, inputs=("f2", "g"), outputs=("f3",)))
        return wf

    def test_tables_are_built_once_per_workflow(self):
        wf = chain_workflow(2, runtime=100.0, file_size=F)
        tables = _event_tables(wf)
        sim(wf, 1, "cleanup", kernel="event")
        assert _event_tables(wf) is tables

    @pytest.mark.parametrize("mode", ["regular", "cleanup", "remote-io"])
    def test_mutation_between_runs_invalidates_tables(self, mode):
        wf = chain_workflow(2, runtime=100.0, file_size=F)
        sim(wf, 1, mode, kernel="event")
        stale = _event_tables(wf)
        self._extend(wf)
        mutated = sim(wf, 1, mode, kernel="event")
        assert _event_tables(wf) is not stale
        assert _event_tables(wf).input_files == ("f0", "g")
        fresh = self._extend(chain_workflow(2, runtime=100.0, file_size=F))
        assert mutated.n_task_executions == 3
        assert mutated == sim(fresh, 1, mode, kernel="event")
        assert mutated == sim(wf, 1, mode, kernel="fast")
