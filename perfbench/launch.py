"""Run one ``tau-lab`` invocation as the console script does.

``python3 perfbench/launch.py <tau-lab arguments>`` calls
``sys.exit(taulab.cli.main(argv))`` with the checkout's ``src`` on the path,
so exit codes, output and tracebacks are the program's own.  Before the
process ends it writes one JSON object to the file descriptor named by
``PERFBENCH_FD``: its set-up time (process start until ``import taulab``
returns, measured from ``PERFBENCH_T0``) and, with ``PERFBENCH_TRACE=1``,
the layer trace (see wrap.py).
"""

import os
import sys
import time

import taulab  # noqa: F401  (the set-up being measured)

SETUP_S = time.monotonic() - float(os.environ["PERFBENCH_T0"])

import json  # noqa: E402


def main():
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import wrap
        tracer = wrap.install()
    import taulab.cli
    try:
        sys.exit(taulab.cli.main(sys.argv[1:]))
    finally:
        with os.fdopen(int(os.environ["PERFBENCH_FD"]), "w") as fh:
            json.dump({"setup_s": SETUP_S,
                       "trace": tracer.report() if tracer else None}, fh)


if __name__ == "__main__":
    main()
