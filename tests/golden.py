"""The equivalence oracle: ``simulate`` on every bundled scenario, as digests.

Each case runs ``fedsust simulate`` in-process through ``fedsust.cli.main``
in a fresh temporary directory, writing to ``--out out``, and records the
exit code, stdout, stderr and the sha256 of each file written.
``tests/test_golden.py`` compares every case with ``tests/golden.json`` and
never rewrites it. To print the table from the code as it is::

    PYTHONPATH=src python tests/golden.py > tests/golden.json

A change that alters these bytes on purpose re-pins the entries it changes
and says which, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "fedsust" / "data" / "scenarios"
TABLE = Path(__file__).resolve().parent / "golden.json"

# The scenario's own seed, 7, and a seed no bundled scenario uses.
SEEDS = (None, 7, 90210)
OUTPUTS = ("trust_report.json", "factsheet.json", "emissions.csv")


def cases() -> dict[str, list[str]]:
    """Case name -> its command line, without ``--out``."""
    table = {}
    for scenario in sorted(SCENARIO_DIR.glob("*.json")):
        for seed in SEEDS:
            argv = ["simulate", "--config", str(scenario)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            table[f"simulate {scenario.stem} seed={seed or 'own'}"] = argv
    return table


def run_case(argv: list[str]) -> dict:
    """The exit code, stdout, stderr and output digests of one in-process run."""
    from fedsust.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)  # so stdout names the outputs by the same relative path in every run
        try:
            code = main([*argv, "--out", "out"])
            files = {name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
                     for name in OUTPUTS if (Path("out") / name).exists()}
        finally:
            os.chdir(cwd)
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "sha256": files}


def table() -> dict[str, dict]:
    return {name: run_case(argv) for name, argv in cases().items()}


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=2, sort_keys=True, ensure_ascii=False)
    sys.stdout.write("\n")
