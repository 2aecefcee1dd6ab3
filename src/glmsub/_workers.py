"""Forked worker processes: the one place that forks.

:func:`_fork_map` runs a list of tasks in up to one forked worker per
usable CPU on Linux and returns their results in task order.  Its tasks
are the Monte Carlo replicates, ssmse's full-data fit, the ranges of a
large CSV body (:func:`glmsub.datasets.load_csv`), the model-robust
models two at a time on many rows
(:func:`glmsub.probabilities.phi_model_robust`) and the two halves of a
large probability file; below its size threshold a CSV body's ranges and
the model-robust rounds run in the caller.  A task that returns an array
writes it into a :func:`_shared_array` of the caller's instead of
pickling it.
"""

from __future__ import annotations

import math
import mmap
import os
import sys

import numpy as np

_in_worker = False  # set in every forked worker, whose own maps run inline


def _cpu_budget() -> int:
    """The CPUs this process may run on: its affinity count, which
    ``taskset`` and cpusets narrow (Linux only)."""
    return len(os.sched_getaffinity(0))


def _worker_count(n_tasks: int) -> int:
    """How many workers :func:`_fork_map` forks for ``n_tasks`` tasks: one
    per task up to the CPU budget on Linux, and none (1, the caller) inside
    a worker, so that a replicate's own maps start no grandchildren."""
    if _in_worker or not sys.platform.startswith("linux"):
        return 1
    return min(n_tasks, _cpu_budget())


def _shared_array(*shape: int) -> np.ndarray:
    """A zeroed float64 array on anonymous shared memory: a forked task
    writes it and the caller reads it.  A page no process touches costs no
    memory."""
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), np.float64, n).reshape(shape)


def _fork_map(tasks: list) -> list:
    """``[task() for task in tasks]``, in W = min(tasks, CPU budget) forked
    workers on Linux when W > 1, worker w running tasks w, w + W, ...
    and pickling its results or its exception into its pipe.  The caller
    runs no task meanwhile, and holds NumPy's OpenBLAS at one thread until
    it leaves, so that each worker inherits one and starts no pool.

    The pipes are read as the workers finish, so the first worker to fail
    is reported at once: a worker's exception is raised here, and a worker
    that dies raises :class:`ChildProcessError` (an OSError, so the CLI
    reports it as a runtime failure).  If a fork fails, the workers already
    started are stopped and the caller runs every task itself, so a task
    must be safe to run again after a stopped worker began it.  No worker
    outlives the call, and a worker runs its own maps inline.  Forked, not
    spawned, to skip a fresh import.
    """
    global _in_worker
    import ctypes
    import pickle
    import selectors
    import signal

    import numpy.linalg._umath_linalg as umath_linalg

    workers = _worker_count(len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    saved, pids, pipes, refused = [], [], [], False  # saved: (setter, caller's count)
    try:
        # dlsym on the handle of NumPy's linalg extension also searches the
        # OpenBLAS it links, so no file is read: a traced load counts the
        # same bytes every run, which a read of /proc/self/maps would not.
        lib = ctypes.CDLL(umath_linalg.__file__)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:  # another BLAS is left as it is
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            saved.append((put, get()))
            put(1)
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb", buffering=0))
            with open(write_end, "wb") as sink:
                try:
                    pid = os.fork()
                except OSError:  # no process to spare
                    refused = True
                    break
                if pid == 0:  # the worker: run its tasks, report and leave
                    _in_worker = True
                    try:
                        try:
                            out = ("ok", [task() for task in tasks[w::workers]])
                        except BaseException as exc:
                            out = ("err", exc)
                        pickle.dump(out, sink)
                        sink.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
        if not refused:
            results, chunks = [None] * len(tasks), [[] for _ in pids]
            with selectors.DefaultSelector() as selector:
                for w, pipe in enumerate(pipes):
                    selector.register(pipe, selectors.EVENT_READ, w)
                while selector.get_map():
                    for key, _ in selector.select():
                        w = key.data
                        if data := key.fileobj.read(1 << 16):
                            chunks[w].append(data)
                            continue
                        selector.unregister(key.fileobj)
                        code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                        pids[w] = None
                        if code:
                            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                            raise ChildProcessError(f"a worker process died: {how}")
                        kind, value = pickle.loads(b"".join(chunks[w]))
                        if kind == "err":
                            raise value
                        results[w::workers] = value
    finally:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        for put, count in saved:
            put(count)
    if refused:  # the workers started are gone: run every task here
        results = [task() for task in tasks]
    return results
