"""Start ``python -m repro serve`` with the trace wrappers installed.

    python3 perfbench/daemon.py TRACE_DIR serve --port 0 --cache-dir DIR ...

The daemon and the pool workers it forks record spans and profiles into
``TRACE_DIR`` (see ``tracing.py``); the daemon's own records are written
when it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer, install


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
