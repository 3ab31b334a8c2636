"""Independent chunks of work in forked child processes.

A table's chains and a hydro study's replicas each draw from their own
stream, so running them in chunks gives the same bits as in one go.
``fork_map`` runs each chunk in a child made with ``os.fork``, which
inherits everything the caller built (any potential, any closure), pipes
its pickled result or exception back and leaves through ``os._exit``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading


def cpus() -> int:
    """How many CPUs this process may run on; one where the platform does
    not tell (no ``os.sched_getaffinity``, as on macOS)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(work, n: int, width: int, meanwhile=lambda: None) -> tuple:
    """(``meanwhile()``, [``work(chunk)`` for each chunk]).

    ``range(n)`` is split into ``min(width, n)`` contiguous chunks, each
    run in a child forked here, while ``meanwhile`` runs in this process.
    The results come back in chunk order.  A child's exception is raised
    here with its own type; a child that exits without a result raises
    ``RuntimeError``.  No child outlives the call, whether it returns or
    raises.  With one chunk, without ``os.fork``, or while other threads
    run (forking is unsafe then), ``work(range(n))`` runs here after
    ``meanwhile``.
    """
    width = min(width, n)
    if width <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return meanwhile(), [work(range(n))]
    children: dict = {}  # pid -> read end of its pipe, until collected
    try:
        for k in range(width):
            pid, fd = _fork(work, range(n * k // width, n * (k + 1) // width))
            children[pid] = fd
        return meanwhile(), [_collect(children, pid) for pid in list(children)]
    finally:
        _stop(children)


def _fork(work, chunk: range) -> tuple[int, int]:
    """Fork a child that runs ``work(chunk)`` and writes the pickled
    outcome, (True, result) or (False, exception), to a pipe; returns the
    child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    # the child leaves through os._exit whatever happens: it never returns
    # into the caller's code, runs its exit handlers or flushes its buffers
    status = 1
    try:
        os.close(r)
        try:
            outcome = (True, work(chunk))
        except Exception as exc:
            outcome = (False, exc)
        with open(w, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(children: dict, pid: int):
    """What child ``pid`` of ``children`` ({pid: read end}) wrote, once it
    has exited; its exception, raised here, if it failed.  The bytes are
    trusted only after a clean exit: a child that fails to pickle its
    outcome exits 1, perhaps after a partial write."""
    fd = children[pid]
    data = bytearray()
    while block := os.read(fd, 1 << 20):
        data += block
    del children[pid]
    os.close(fd)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"worker {pid} exited with status {code}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _stop(children: dict) -> None:
    """Kill and reap the children not collected, and close their pipes."""
    for pid, fd in children.items():
        os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    children.clear()
