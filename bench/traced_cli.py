"""Traced stand-in for the ``fedsust`` console command (cli-cold, ``--trace 1``).

Runs ``fedsust.cli.main`` on the given arguments with the layer wrappers of
:mod:`tracer` installed, then writes the per-name summary and the raw spans
as JSON to the path in ``FEDSUST_BENCH_TRACE`` and exits with main's code.
The trace is written however main ends, an exception included.
"""

import json
import os
import sys

from fedsust.cli import main
from tracer import Tracer, install

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    since = tracer.mark()
    try:
        code = tracer.call("cli.main", main, sys.argv[1:])
    finally:
        with open(os.environ["FEDSUST_BENCH_TRACE"], "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(since), "spans": tracer.spans}, fh)
    sys.exit(code)
