"""`python -m stmotives.cli` with the benchmark's tracer installed.

    BENCH_TRACE_DIR=DIR python bench/cli_child.py motive dwork --bound-log2 10

The traced cli-cold commands run through this launcher; the spans of the
command (and of its worker processes) land in DIR.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stmotives.cli  # noqa: E402

import tracer  # noqa: E402

if __name__ == "__main__":
    t = tracer.install_from_env()
    try:
        code = stmotives.cli.main(sys.argv[1:])
    finally:
        if t is not None:
            t.flush()
    sys.exit(code)
