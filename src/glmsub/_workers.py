"""Forked worker processes: the one place that forks.

:func:`_fork_map` runs a list of tasks in up to one forked worker per
usable CPU on Linux and returns their results in task order.  The Monte
Carlo replicates, ssmse's full-data fit and the two halves of a large
probability file are all its tasks.
"""

from __future__ import annotations

import os
import sys


def _cpu_budget() -> int:
    """The CPUs this process may run on: its affinity count, which
    ``taskset`` and cpusets narrow (Linux only)."""
    return len(os.sched_getaffinity(0))


def _fork_map(tasks: list) -> list:
    """``[task() for task in tasks]``, in W = min(tasks, CPU budget) forked
    workers on Linux when W > 1, worker w running tasks w, w + W, ...
    and pickling its results or its exception into its pipe.  The caller
    runs no task meanwhile, and holds every loaded OpenBLAS at one thread
    until it leaves, so that each worker inherits one and starts no pool.

    The pipes are read as the workers finish, so the first worker to fail
    is reported at once: a worker's exception is raised here, and a worker
    that dies raises :class:`ChildProcessError` (an OSError, so the CLI
    reports it as a runtime failure).  If a fork fails, the workers already
    started are stopped and the caller runs every task itself, so a task
    must be safe to run again after a stopped worker began it.  No worker
    outlives the call.  Forked, not spawned, to skip a fresh import.
    """
    import ctypes
    import pickle
    import selectors
    import signal

    workers = min(len(tasks), _cpu_budget()) if sys.platform.startswith("linux") else 1
    if workers <= 1:
        return [task() for task in tasks]
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    saved, pids, pipes, refused = [], [], [], False  # saved: (setter, caller's count)
    try:
        for lib in map(ctypes.CDLL, sorted(paths)):  # one without these calls is left as it is
            get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
            put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
            if get is not None and put is not None:
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
