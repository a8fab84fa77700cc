"""Run one ``tnn_strata.cli`` command with per-layer tracing.

Usage: python perfbench/cli_shim.py TRACE_JSON <verb> [options...]

Stdout, stderr and the exit code are those of ``python -m tnn_strata.cli
<verb> [options...]``.  The import time of ``tnn_strata.cli``, the time
spent in the command, and the tracer's counts and self times are written
to TRACE_JSON.  The traced ``cli`` workload runs its ops through this file.
"""

import importlib
import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    cli = importlib.import_module("tnn_strata.cli")
    t1 = perf_counter()
    tracer = Tracer().install()
    t_verb = perf_counter()
    code = 0
    try:
        cli.main(args=argv, prog_name="python -m tnn_strata.cli")
    except SystemExit as exc:
        code = exc.code
    finally:
        t2 = perf_counter()
        tracer.restore()
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "import_s": t1 - t0,
                    "verb_s": t2 - t_verb,
                    "calls": tracer.calls,
                    "self_s": tracer.self_s,
                    "accepted": tracer.accepted,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
