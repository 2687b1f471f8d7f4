"""One `epsarb` CLI call under the span tracer.

Usage: cli_child.py OUT_DIR SUBCOMMAND [ARGS...]

Behaves like ``python -m epsarb.cli SUBCOMMAND [ARGS...]`` and also writes
its spans, with the time ``import epsarb.cli`` took, to
``OUT_DIR/cli-<pid>.jsonl``.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, install


def main() -> int:
    out_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    start = perf_counter()
    import epsarb.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return epsarb.cli.run(argv)
    finally:
        tracer.write(out_dir / f"cli-{os.getpid()}.jsonl", {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
