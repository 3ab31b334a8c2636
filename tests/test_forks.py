"""The fork helper that runs table chains and hydro replicas in chunks."""

import os
import threading

import pytest

from oracles import assert_no_child_left

from heightlab import NonFinite
from heightlab._forks import fork_map


class TestForkMap:
    def test_chunks_fork_and_come_back_in_order_while_the_parent_works(self):
        parent = os.getpid()
        value, parts = fork_map(lambda chunk: (list(chunk), os.getpid()), 7, 3,
                                lambda: os.getpid())
        assert value == parent
        assert [c for c, _ in parts] == [[0, 1], [2, 3], [4, 5, 6]]
        pids = {pid for _, pid in parts}
        assert len(pids) == 3 and parent not in pids
        # at most one chunk per item
        assert fork_map(list, 2, 8)[1] == [[0], [1]]
        assert_no_child_left()

    def test_a_childs_non_finite_surfaces_as_non_finite(self):
        def work(chunk):
            if chunk.start:
                raise NonFinite("height field left float range in a worker")
            return list(chunk)

        with pytest.raises(NonFinite, match="in a worker"):
            fork_map(work, 4, 2)
        assert_no_child_left()

    def test_a_child_that_exits_without_a_result_raises(self):
        with pytest.raises(RuntimeError, match="exited with status 3"):
            fork_map(lambda chunk: os._exit(3), 4, 2)
        assert_no_child_left()

    def test_a_raising_meanwhile_kills_and_reaps_every_child(self):
        def meanwhile():
            raise KeyError("the parent's own work failed")

        with pytest.raises(KeyError):
            # the children wait forever: only the kill on the way out ends them
            fork_map(lambda chunk: threading.Event().wait(), 4, 2, meanwhile)
        assert_no_child_left()

    def test_runs_in_process_while_another_thread_runs(self):
        parent = os.getpid()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            _, parts = fork_map(lambda chunk: (chunk, os.getpid()), 6, 3)
        finally:
            stop.set()
            thread.join()
        assert parts == [(range(6), parent)]
