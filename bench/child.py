"""Run one glmsub CLI call in a fresh interpreter and report what it cost.

Usage: ``python3 child.py '<json spec>'`` with the spec keys

* ``src``: directory holding the ``glmsub`` package;
* ``argv``: arguments for ``glmsub.cli.main``, or null to stop after the
  import (a set-up sample);
* ``trace``: wrap glmsub's layers with :class:`tracer.Tracer`;
* ``result``: path of the JSON report this process writes.

The report holds the ``time.monotonic()`` stamp taken once ``glmsub.cli``
is imported, which the parent subtracts from its own stamp taken before
starting this process, and the wall time and exit code of the ``main``
call, this process's peak resident memory and, when traced, the spans.
"""

import json
import resource
import sys
import time


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import glmsub.cli

    report = {"imported": time.monotonic()}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        report["rc"] = glmsub.cli.main(spec["argv"])
        report["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            report["trace"] = tracer.report()
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    report = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
