"""The equivalence oracle: every command on the bundled inputs, as digests.

The cases are ``validate``, ``score`` and ``simulate`` on every bundled
scenario (``simulate`` at three seeds), ``compare`` on the two proposals with
their pillar files, ``score`` under the bundled weight file, ``--allow-partial``
with one pillar missing, and two rejected scenarios: one with a NaN statistic
(exit 1) and one with an unresolvable location (exit 2). Each case runs
in-process through ``fedsust.cli.main`` in a fresh temporary directory that
holds the derived input files, writing to ``--out out``, and records the exit
code, stdout, stderr and the sha256 of each file written.
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

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "fedsust" / "data"
SCENARIO_DIR = DATA_DIR / "scenarios"
TABLE = Path(__file__).resolve().parent / "golden.json"

# The scenario's own seed, 7, and a seed no bundled scenario uses.
SEEDS = (None, 7, 90210)
OUTPUTS = ("trust_report.json", "factsheet.json", "emissions.csv", "comparison.json")


def _derived() -> dict[str, dict]:
    """Input files made from the bundled ones: file name -> its JSON."""
    partial = json.loads((DATA_DIR / "pillars" / "proposal_b_pillars.json").read_text(encoding="utf-8"))
    del partial["pillars"]["robustness"]
    uc_a = json.loads((SCENARIO_DIR / "uc_a.json").read_text(encoding="utf-8"))
    return {
        "partial_pillars.json": partial,
        "nan_statistics.json": {**uc_a, "statistics": {"accuracy": float("nan")}},  # a bare NaN
        "unresolvable_location.json": {**uc_a, "client_locations": "Atlantis"},
    }


def cases() -> dict[str, list[str]]:
    """Case name -> its command line, without ``--out``; derived inputs by bare file name."""
    table = {}
    for scenario in sorted(SCENARIO_DIR.glob("*.json")):
        for command in ("validate", "score"):
            table[f"{command} {scenario.stem}"] = [command, "--config", str(scenario)]
        for seed in SEEDS:
            argv = ["simulate", "--config", str(scenario)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            table[f"simulate {scenario.stem} seed={seed or 'own'}"] = argv
    proposals = [arg for name in ("proposal_a", "proposal_b")
                 for arg in ("--config", str(SCENARIO_DIR / f"{name}.json"),
                             "--pillars", str(DATA_DIR / "pillars" / f"{name}_pillars.json"))]
    table["compare proposal_a proposal_b"] = ["compare", *proposals]
    table["score uc_d weights=carbon_emphasis"] = [
        "score", "--config", str(SCENARIO_DIR / "uc_d.json"),
        "--weights", str(DATA_DIR / "weights" / "carbon_emphasis.json")]
    table["score proposal_b allow-partial without robustness"] = [
        "score", "--config", str(SCENARIO_DIR / "proposal_b.json"),
        "--pillars", "partial_pillars.json", "--allow-partial"]
    table["simulate nan_statistics"] = ["simulate", "--config", "nan_statistics.json"]
    table["simulate unresolvable_location"] = ["simulate", "--config", "unresolvable_location.json"]
    return table


def run_case(argv: list[str]) -> dict:
    """The exit code, stdout, stderr and output digests of one in-process run."""
    from fedsust.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)  # so stdout names the outputs by the same relative path in every run
        try:
            for name, content in _derived().items():
                Path(name).write_text(json.dumps(content), encoding="utf-8")
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
