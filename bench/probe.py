"""Fresh-interpreter probes, started by run.py with ``PYTHONPATH=src``.

``probe.py setup MODULES SCENARIO...`` times importing the comma-separated
MODULES, loading the reference tables and parsing each scenario file, and
prints ``{"setup_s": ...}``.

``probe.py cli SCENARIO`` times importing ``fedsust.cli``, then runs
``validate`` on SCENARIO and prints ``{"import_s": ..., "numpy": 0|1}``:
whether a call that never simulates still loaded numpy.

Nothing but ``sys`` and ``time`` is imported before the clock starts, so
the program pays for every module it pulls in.
"""

import sys
import time


def _setup(modules: str, scenarios: list[str]) -> dict:
    start = time.perf_counter()
    for name in modules.split(","):
        __import__(name)
    from fedsust.config import load_scenario
    from fedsust.refdata import ReferenceTables

    ReferenceTables.load()
    for path in scenarios:
        load_scenario(path)
    return {"setup_s": time.perf_counter() - start}


def _cli(scenario: str) -> dict:
    start = time.perf_counter()
    from fedsust.cli import main

    import_s = time.perf_counter() - start
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", "--config", scenario])
    if code != 0:
        raise SystemExit(f"validate exited {code}")
    return {"import_s": import_s, "numpy": int("numpy" in sys.modules)}


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = _setup(rest[0], rest[1:]) if mode == "setup" else _cli(rest[0])
    import json

    print(json.dumps(result))
