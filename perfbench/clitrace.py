"""Run one ``mpde`` CLI command with span tracing, then dump the spans.

Usage: python3 perfbench/clitrace.py SPANS_JSON MPDE_ARGS...

mpde must be importable (the benchmark puts ``src`` on PYTHONPATH).  The spans
and the ``scaled_eval`` cache misses go to SPANS_JSON; the process exits with
the command's own exit code.
"""

import sys
from pathlib import Path

import mpde.cli
import mpde.moments

from spans import Tracer


def main() -> int:
    dump_path, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.span("cli." + args[0]):
            mpde.cli.main.main(args=args, prog_name="mpde")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(dump_path,
                    misses=mpde.moments.scaled_eval.cache_info().misses)
    return code


if __name__ == "__main__":
    sys.exit(main())
