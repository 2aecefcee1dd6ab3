"""The ordered task stream of glmsub._workers: share 0 in the caller, each
other share in one worker forked for the whole stream, and one buffer per
share when the stream is given a shape."""

import os
import signal
import subprocess
import sys
import time
import types
from contextlib import closing
from functools import partial

import pytest

import glmsub._workers
from glmsub._workers import _fork_stream, _shared_array, _worker_count


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPUs to n and return the share count of up to 9 tasks."""

    def usable(n):
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: n)
        return _worker_count(9)

    return usable


def _square(k):
    return k * k


def _stamp(k, buffer):
    """Write task k's index into its share's buffer."""
    buffer[:] = k
    return k


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_results_in_task_order(cpus, forks, n):
    assert cpus(n) == n
    tasks = [partial(_square, k) for k in range(9)]
    assert list(_fork_stream(tasks, True)) == [task() for task in tasks]
    assert len(forks) == n - 1  # share 0 runs here
    _no_child_left()


@pytest.mark.parametrize("n", [2, 3])
def test_caller_runs_share_zero(cpus, n):
    cpus(n)
    pids = list(_fork_stream([os.getpid] * 7, True))
    assert [pid == os.getpid() for pid in pids] == [k % n == 0 for k in range(7)]
    assert len(set(pids)) == n  # one worker per other share, for the whole stream


@pytest.mark.parametrize("n", [2, 3])
def test_a_share_waits_until_its_result_is_taken(cpus, n):
    # A worker that ran ahead would overwrite its buffer with a later
    # task's index while the consumer still reads the earlier one.
    workers = cpus(n)
    tasks = [partial(_stamp, k) for k in range(4 * workers + 1)]
    for k, (buffer, got) in enumerate(_fork_stream(tasks, True, 1)):
        assert got == k
        time.sleep(0.02)
        assert buffer[0] == k


def _stamp_and_flag(k, flags, buffer):
    """Write task k's index into its share's buffer, then set flag k."""
    buffer[:] = k
    flags[k] = 1
    return k


def test_each_worker_share_has_its_own_buffer(cpus):
    # Tasks 1 and 2 start at once in the two workers.  Once task 2 has
    # written its buffer, task 1's must still hold 1, which it would not if
    # the worker shares wrote one buffer.
    cpus(3)
    flags = _shared_array(3)
    tasks = [partial(_stamp_and_flag, k, flags) for k in range(3)]
    with closing(_fork_stream(tasks, True, 4)) as stream:
        assert next(stream)[1] == 0
        buffer, got = next(stream)
        deadline = time.monotonic() + 60
        while not flags[2]:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert got == 1
        assert (buffer == 1).all()
        buffer, got = next(stream)
        assert got == 2
        assert (buffer == 2).all()
    _no_child_left()


def test_no_split_forks_no_worker(cpus, forks):
    assert cpus(3) == 3
    tasks = [partial(_square, k) for k in range(9)]
    assert list(_fork_stream(tasks, False)) == [task() for task in tasks]
    stamps = [partial(_stamp, k) for k in range(9)]
    assert [got for _, got in _fork_stream(stamps, False, 1)] == list(range(9))
    assert forks == []


def test_consumer_error_stops_the_workers(cpus):
    cpus(2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="consumer"):
        with closing(_fork_stream([int, partial(time.sleep, 30)] * 2, True)) as stream:
            for _ in stream:
                raise RuntimeError("consumer")
    assert time.monotonic() - started < 10
    _no_child_left()


def test_plain_openblas_names_hold_one_thread(cpus, monkeypatch):
    # A BLAS that exports only the plain OpenBLAS names: the caller's count
    # is 1 while the workers live, so share 0 and each worker run at one
    # thread, and it is put back afterwards.
    import ctypes

    count = [4]

    def get():
        return count[0]

    def put(n):
        count[0] = n

    fake = types.SimpleNamespace(openblas_get_num_threads=get, openblas_set_num_threads=put)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: fake)
    cpus(2)
    assert list(_fork_stream([get] * 4, True)) == [1, 1, 1, 1]
    assert count == [4]
    _no_child_left()


def _fail_at(k, bad):
    if k == bad:
        raise ValueError(f"task {k}")
    return k


def test_worker_error_is_raised_at_its_turn(cpus):
    cpus(2)
    got = []
    with pytest.raises(ValueError, match="task 3"):
        for value in _fork_stream([partial(_fail_at, k, 3) for k in range(6)], True):
            got.append(value)
    assert got == [0, 1, 2]
    _no_child_left()


def _die_at(k, bad):
    if k == bad:
        os.kill(os.getpid(), signal.SIGKILL)
    return k


def test_dead_worker_is_reported_when_its_result_is_next(cpus):
    cpus(2)
    got = []
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        for value in _fork_stream([partial(_die_at, k, 3) for k in range(6)], True):
            got.append(value)
    assert got == [0, 1, 2]
    _no_child_left()


@pytest.mark.parametrize("allowed", [0, 1])
def test_refused_fork_gives_the_plain_loop(cpus, monkeypatch, allowed):
    cpus(3)
    fork, calls = os.fork, []

    def refuse_after_allowed():
        calls.append(1)
        if len(calls) > allowed:
            raise OSError("Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", refuse_after_allowed)
    tasks = [partial(_square, k) for k in range(7)]
    assert list(_fork_stream(tasks, True)) == [task() for task in tasks]
    assert len(calls) == allowed + 1
    _no_child_left()


def _gone(pid):
    """Whether process ``pid`` has left (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_worker_leaves_when_the_caller_dies(tmp_path):
    # The caller dies while its worker waits to start its next task: the
    # worker reads the end of its ack pipe and leaves.
    pid_file = tmp_path / "worker.pid"
    script = f"""
import os, signal
import glmsub._workers as w

def task(k):
    if k == 1:
        with open({str(pid_file)!r}, "w") as fh:
            fh.write(str(os.getpid()))
    return k

w._cpu_budget = lambda: 2
for k in w._fork_stream([lambda k=k: task(k) for k in range(6)], True):
    if k == 1:
        os.kill(os.getpid(), signal.SIGKILL)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120)
    assert done.returncode == -signal.SIGKILL
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 30
    while not _gone(worker):
        assert time.monotonic() < deadline
        time.sleep(0.01)
