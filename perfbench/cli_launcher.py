"""``rsurf`` command line with the benchmark's spans installed.

Usage: ``PERFBENCH_SPANS=<file> python3 perfbench/cli_launcher.py <subcommand> ...``
with rsurf's ``src`` on PYTHONPATH.  Behaves as ``python3 -m rsurf.cli``;
on exit it writes the spans, the time at which the interpreter reached this
file, the time to import ``rsurf.cli`` and the time in ``rsurf.cli.run`` to
the pickle file named by PERFBENCH_SPANS.
"""

from clock import now

FIRST = now()

import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402


def main():
    start = time.perf_counter()
    import rsurf.cli

    imported = time.perf_counter()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    run_start = time.perf_counter()
    code = rsurf.cli.run(sys.argv[1:])
    run_s = time.perf_counter() - run_start
    with open(os.environ["PERFBENCH_SPANS"], "wb") as fh:
        pickle.dump(
            {
                "first": FIRST,
                "import_s": imported - start,
                "run_s": run_s,
                "spans": tracer.spans,
                "counts": tracer.counts,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
