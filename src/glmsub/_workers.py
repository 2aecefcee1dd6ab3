"""Forked worker processes: the one place that forks.

Two mappings run a list of tasks in up to one share per usable CPU on
Linux, share w holding tasks w, w + W, ...; both fork through
:func:`_forked`:

* :func:`_fork_stream` yields the results in task order.  The caller runs
  share 0 itself, and each other share runs in one worker, forked once for
  the whole call.  Its tasks are the phases that read every row: the
  ranges of a large CSV body (:func:`glmsub.datasets.load_csv`), and from
  ``_SPLIT_ROWS`` rows the model-robust models
  (:func:`glmsub.probabilities.phi_model_robust`) and the row blocks of a
  probability file (:func:`glmsub.cli._write_probabilities`).
* :func:`_fork_map` returns the results as a list, every share in a
  worker and the caller idle.  Its tasks are the Monte Carlo replicates
  and ssmse's full-data fit.  A caller that ran replicates too raised the
  peak resident set (33.6 -> 40.6 MB on a test_05 study) and did not
  shorten the run.

A task that returns an array writes it into a :func:`_shared_array` of
the caller's instead of pickling it.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import sys

import numpy as np

_in_worker = False  # set in every forked worker, whose own maps run inline
# From this many rows the model-robust scoring and the probability write are
# shared out between this process and forked workers; on a 2-vCPU VM the
# break-even of both lies near 2^16 rows.  Medians of 21 interleaved
# in-process calls under the CLI's malloc settings, one process -> this
# process and one worker (pairs where two were lower):
# - mMSE with the 8 quadratic models of three covariates: 10.8 -> 15.5 ms at
#   2^14 (5 of 21), 23.0 -> 21.5 ms at 2^16 (16), 38.4 -> 31.1 ms at 98,304
#   (18), 43.6 -> 35.1 ms at 2^17 (17), 86.2 -> 58.5 ms at 2^18 (21) and
#   441.4 -> 258.2 ms at 2^20 (21).  A second sweep of 31 pairs had two lower
#   in 19 of 31 at 2^16, 26 at 98,304 and 31 at 2^17.
# - writes of 8,192-row blocks after a load_csv of the data: 11.4 -> 13.2 ms
#   at 2^15 (3 of 21), 19.9 -> 17.9 ms at 2^16 (20), 28.9 -> 24.2 ms at
#   98,304 (18), 32.9 -> 28.6 ms at 2^17 (21), 55.1 -> 40.2 ms at 196,608
#   (21) and 62.2 -> 49.9 ms at 2^18 (20).  A second sweep of 31 pairs had
#   two lower in 2 of 31 at 2^15, 21 at 2^16, 28 at 98,304 and 28 at 2^17.
_SPLIT_ROWS = 1 << 17


def _cpu_budget() -> int:
    """The CPUs this process may run on: its affinity count, which
    ``taskset`` and cpusets narrow (Linux only)."""
    return len(os.sched_getaffinity(0))


def _worker_count(n_tasks: int) -> int:
    """How many shares a mapping splits ``n_tasks`` tasks into: one per
    task up to the CPU budget on Linux, and 1 (the caller) inside a worker,
    so that a replicate's own maps start no grandchildren."""
    if _in_worker or not sys.platform.startswith("linux"):
        return 1
    return min(n_tasks, _cpu_budget())


def _shared_array(*shape: int) -> np.ndarray:
    """A zeroed float64 array on anonymous shared memory: a forked task
    writes it and the caller reads it.  A page no process touches costs no
    memory."""
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), np.float64, n).reshape(shape)


@contextlib.contextmanager
def _forked(shares: list, acked: bool):
    """Fork one worker for each share, a list of tasks, and yield them as
    ``[pid, results pipe, ack pipe's write end or None]`` lists, or None
    if the system refused a fork.

    A worker runs its share in order and pickles ``("ok", result)`` into
    its pipe after each task, or ``("err", exc)`` for the exception that
    stops it, and then leaves.  With ``acked`` it waits for a byte on its
    ack pipe before each task after the first.  While the workers live the
    caller holds NumPy's OpenBLAS at one thread, so that each worker
    inherits one and starts no pool.  On leaving, every worker still
    running is killed and reaped and the caller's thread count is put
    back.  After a refused fork that is done before None is yielded, so
    the caller then runs every task itself at its own count: a task must
    be safe to run again after a stopped worker began it.  Forked, not
    spawned, to skip a fresh import.
    """
    global _in_worker
    import ctypes
    import pickle
    import signal

    import numpy.linalg._umath_linalg as umath_linalg

    saved, workers, refused = [], [], False  # saved: (setter, caller's count)
    try:
        # dlsym on the handle of NumPy's linalg extension also searches the
        # OpenBLAS it links, so no file is read: a traced load counts the
        # same bytes every run, which a read of /proc/self/maps would not.
        # The names are those of the scipy-openblas, 64-bit-integer and plain
        # OpenBLAS builds; another BLAS is left as it is.
        lib = ctypes.CDLL(umath_linalg.__file__)
        for names in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            get, put = (getattr(lib, name, None) for name in names)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                saved.append((put, get()))
                put(1)
                break
        for share in shares:
            read_end, write_end = os.pipe()
            ack_read, ack_write = os.pipe() if acked else (None, None)
            workers.append([None, open(read_end, "rb"), ack_write])
            with open(write_end, "wb") as sink:
                try:
                    pid = os.fork()
                except OSError:  # no process to spare
                    pid, refused = None, True
                if pid != 0 and ack_read is not None:
                    os.close(ack_read)  # the worker's end
                if refused:
                    break
                if pid == 0:  # the worker: run its share, report and leave
                    _in_worker = True
                    try:
                        for _, _, ack in workers:  # so that a caller's death reads as EOF
                            if ack is not None:
                                os.close(ack)
                        for i, task in enumerate(share):
                            if i and acked and not os.read(ack_read, 1):
                                break  # the caller is gone
                            try:
                                out = ("ok", task())
                            except BaseException as exc:
                                out = ("err", exc)
                            pickle.dump(out, sink)
                            sink.flush()
                            if out[0] == "err":
                                break
                        os._exit(0)
                    finally:
                        os._exit(1)
                workers[-1][0] = pid
        if not refused:
            yield workers
            return
    finally:
        for pid, pipe, ack in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
            if ack is not None:
                os.close(ack)
        for put, count in saved:
            put(count)
    yield None


def _reap(worker: list) -> int:
    """Wait for ``worker`` to leave and return its exit code, or minus the
    signal that killed it."""
    code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
    worker[0] = None
    return code


def _died(code: int) -> ChildProcessError:
    """The error for a worker that left with ``code`` before it reported
    (an OSError, so the CLI reports it as a runtime failure)."""
    how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
    return ChildProcessError(f"a worker process died: {how}")


def _fork_stream(tasks: list, workers: int):
    """Yield ``task()`` for each task, in task order.  Task k runs in share
    k mod ``workers``: share 0 in the caller when its turn comes, and each
    other share in one worker forked for the whole call (:func:`_forked`).
    The caller takes ``workers`` from :func:`_worker_count` of the tasks,
    or 1 for a plain loop, as inside a worker, on one CPU and off Linux.

    A worker sends each result as soon as it is done, and starts its next
    task only once the consumer asks for the result after that one, so
    each share can reuse one buffer.  A worker's exception is raised at
    its turn, and a worker that died raises :class:`ChildProcessError`
    when its result is next.  A consumer that may stop early closes the
    stream in a ``finally`` (``contextlib.closing``), which stops the
    workers at once; no worker outlives the stream.  If a fork is refused
    the caller runs every task.
    """
    import pickle

    if workers > 1:
        with _forked([tasks[w::workers] for w in range(1, workers)], acked=True) as forked:
            if forked is not None:
                for k, task in enumerate(tasks):
                    if not k % workers:
                        yield task()
                        continue
                    worker = forked[k % workers - 1]
                    try:
                        kind, value = pickle.load(worker[1])
                    except (EOFError, pickle.UnpicklingError):
                        raise _died(_reap(worker)) from None
                    if kind == "err":
                        raise value
                    yield value
                    if k + workers < len(tasks):
                        with contextlib.suppress(BrokenPipeError):  # reported at its next turn
                            os.write(worker[2], b"\0")
                return
    for task in tasks:
        yield task()


def _fork_map(tasks: list) -> list:
    """``[task() for task in tasks]``, in W = :func:`_worker_count` of the
    tasks forked workers when W > 1, worker w running tasks w, w + W, ...
    (:func:`_forked`) while the caller runs none.

    The pipes are read as the workers finish, so the first worker to fail
    is reported at once: a worker's exception is raised here, and a worker
    that dies raises :class:`ChildProcessError`.  If a fork is refused the
    caller runs every task.  A worker runs its own maps inline.
    """
    import io
    import pickle
    import selectors

    workers = _worker_count(len(tasks))
    if workers > 1:
        with _forked([tasks[w::workers] for w in range(workers)], acked=False) as forked:
            if forked is not None:
                results, chunks = [None] * len(tasks), [[] for _ in forked]
                with selectors.DefaultSelector() as selector:
                    for w, (_, pipe, _) in enumerate(forked):
                        selector.register(pipe, selectors.EVENT_READ, w)
                    while selector.get_map():
                        for key, _ in selector.select():
                            w = key.data
                            if data := key.fileobj.read1(1 << 16):
                                chunks[w].append(data)
                                continue
                            selector.unregister(key.fileobj)
                            if code := _reap(forked[w]):
                                raise _died(code)
                            messages = io.BytesIO(b"".join(chunks[w]))
                            for k in range(w, len(tasks), workers):
                                kind, value = pickle.load(messages)
                                if kind == "err":
                                    raise value
                                results[k] = value
                return results
    return [task() for task in tasks]
