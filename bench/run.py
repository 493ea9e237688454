"""fedsust benchmark: one command, four workloads, checked outputs.

Run from the root of a source checkout (no install needed)::

    python3 bench/run.py --workload score-sweep --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

``cli-cold``     one fresh ``fedsust`` process per call, rotating validate,
                 score, compare, simulate (uc_d) and simulate on a uc_a-sized
                 scenario whose ``statistics`` hold NaN;
``score-sweep``  in-process ``fedsust.cli.main``: validate, score and compare
                 over a seeded grid of design points;
``sim-desk``     in-process ``simulate`` on the bundled desk_scale_1000;
``sim-wide``     in-process ``simulate`` on a generated 20 000-client fleet
                 with 10 clients per round.

Every time is scaled to reference speed (see ``refclock.py``). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Raw figures go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import refclock

BENCH_DIR = Path(__file__).resolve().parent
RUN_ROOT = Path(".bench_run")
# Whole-run limit beyond --seconds: probes, calibration and the checks.
TIME_MARGIN_S = 140
SETUP_PROBES = 9
PROBE_REF_UNITS = 20
CLI_PROBES = 5

LAYER_METRICS = (
    ("cli.import_ms", "ms"), ("cli.numpy_imported", "count"), ("cli.main.self_ms", "ms"),
    ("refdata.load.calls", "count"), ("refdata.load.ms", "ms"),
    ("config.load_scenario.ms", "ms"), ("sustainability.assess.ms", "ms"),
    ("scoring.aggregate.ms", "ms"), ("scoring.apply_weights.ms", "ms"),
    ("scoring.trust_score.calls", "count"),
    ("report.build_trust_report.ms", "ms"), ("report.emissions_summary.ms", "ms"),
    ("report.populate_factsheet.ms", "ms"), ("report.render_report.ms", "ms"),
    ("report.render_report.bytes", "bytes"), ("report.write_atomic.ms", "ms"),
    ("report.write_atomic.calls", "count"), ("report.write_atomic.bytes", "bytes"),
    ("emissions.track_phase.calls", "count"), ("emissions.track_phase.ms", "ms"),
    ("emissions.sorted_records.calls", "count"), ("emissions.to_csv_bytes.ms", "ms"),
    ("emissions.rows", "count"),
    ("fedsim.run_federation.self_ms", "ms"), ("fedsim.sample_clients.calls", "count"),
    ("fedsim.sample_clients.ms", "ms"), ("fedsim.client_class_counts.calls", "count"),
    ("fedsim.client_class_counts.ms", "ms"), ("fedsim.hash_label.calls", "count"),
    ("fedsim.hash_client_id.calls", "count"), ("fedsim.aggregate_model.ms", "ms"),
    ("py.gc.collections", "count"), ("trace.op_ms.p50", "ms"),
)


class BenchError(Exception):
    """The benchmark cannot run here."""


class TimeLimit(BaseException):
    """The run outlived its limit.

    A ``BaseException``, so that no handler for a failed program call, in
    the benchmark or in ``fedsust.cli.main``, can turn it into one.
    """


def _digests(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            out[str(path.relative_to(directory))] = digest.hexdigest()
    return out


class Call:
    """One program call of an operation and what it left behind."""

    __slots__ = ("kind", "argv", "out", "code", "stdout", "stderr")

    def __init__(self, kind: str, argv: list[str], out: Path | None):
        self.kind, self.argv, self.out = kind, argv, out
        self.code, self.stdout, self.stderr = None, "", ""


class Workload:
    """Shared loop: reference blocks between operations, deferred checks.

    A subclass defines ``calls(op_index, op_dir)``, the fixed call sequence
    of one operation with a key naming each call's position, and
    ``execute``, which runs them.
    """

    name = ""
    ref_units = 30
    setup_modules = "fedsust.cli"

    def __init__(self, root: Path, run_dir: Path, seed: int, trace: bool):
        self.root, self.run_dir, self.seed, self.trace = root, run_dir, seed, trace
        self.input_dir = run_dir / "inputs"
        self.input_dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.first: dict[tuple, Call] = {}
        self.first_digests: dict[tuple, dict] = {}
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.layer_ops: list[dict] = []
        self.spans: list = []

    # -- subclass interface -------------------------------------------------
    def scenario_files(self) -> list[str]:
        raise NotImplementedError

    def calls(self, index: int, op_dir: Path) -> list[tuple[tuple, Call]]:
        raise NotImplementedError

    def execute(self, calls: list[Call]) -> tuple[float, float, float]:
        """Run the calls; return raw wall s, CPU s and peak RSS MB (0 if own process)."""
        raise NotImplementedError

    def passes(self, call: Call) -> bool:
        return call.code == 0

    # -- children -----------------------------------------------------------
    def spawn(self, argv: list[str], stdout, stderr, env=None):
        """Run a child to completion; return its exit code, wall s and rusage."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=env or self.env, stdout=stdout, stderr=stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def probe(self, args: list[str]) -> dict:
        out, err = self.run_dir / "probe.out", self.run_dir / "probe.err"
        with open(out, "wb") as fh, open(err, "wb") as eh:
            code, _, _ = self.spawn([sys.executable, str(BENCH_DIR / "probe.py"), *args], fh, eh)
        if code != 0:
            raise BenchError(f"probe {args[0]} exited {code}: {err.read_text()[-500:]}")
        return json.loads(out.read_text().splitlines()[-1])

    # -- measurement --------------------------------------------------------
    @staticmethod
    def interleaved(stop, fn, units) -> list:
        """Alternate reference blocks and ``fn(index)`` until ``stop(index)``.

        Returns ``(result, (wall factor, CPU factor, unit wall s))`` per call.
        """
        clock = refclock.Clock(units)
        results = []
        while not stop(len(results)):
            results.append(fn(len(results)))
            clock.block()
        return list(zip(results, clock.scales()))

    def setup_seconds(self) -> tuple[float, list[float]]:
        args = ["setup", self.setup_modules, *self.scenario_files()]
        self.probe(args)  # compiles bytecode; not measured
        runs = self.interleaved(lambda i: i >= SETUP_PROBES, lambda i: self.probe(args)["setup_s"],
                                PROBE_REF_UNITS)
        return statistics.median(value * fw for value, (fw, _, _) in runs), [value for value, _ in runs]

    def cli_probes(self, scenario: str) -> tuple[float, int]:
        runs = self.interleaved(lambda i: i >= CLI_PROBES, lambda i: self.probe(["cli", scenario]),
                                PROBE_REF_UNITS)
        import_ms = statistics.median(r["import_s"] * 1e3 * fw for r, (fw, _, _) in runs)
        return import_ms, max(r["numpy"] for r, _ in runs)

    def one_operation(self, index: int):
        op_dir = self.run_dir / "ops" / f"{index:05d}"
        keyed = self.calls(index, op_dir)
        calls = [call for _, call in keyed]
        since = self.tracer.mark() if self.tracer else None
        wall, cpu, rss = self.execute(calls)
        if self.tracer and self.in_process:
            self.layer_ops.append(self.tracer.summary(since))
        self.attempted += len(calls)
        for key, call in keyed:
            self.record(key, call)
        shutil.rmtree(op_dir, ignore_errors=True)
        return wall, cpu, rss

    def record(self, key: tuple, call: Call) -> None:
        if not self.passes(call):
            self.failed += 1
            self.failures.append(f"{call.kind}: exited {call.code}: {call.stderr.strip()[-300:]}")
            return
        digests = _digests(call.out) if call.out is not None and call.out.exists() else {}
        if call.out is not None:
            call.stdout = call.stdout.replace(str(call.out), "<out>")
        if key not in self.first:
            # kept on disk for the full check after the timed phase
            if digests:
                keep = self.run_dir / "first" / "_".join(map(str, key))
                keep.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(call.out), keep)
                call.out = keep
            self.first[key] = call
            self.first_digests[key] = digests
            return
        first = self.first[key]
        if digests != self.first_digests[key]:
            self.problems.append(f"{call.kind}: output bytes differ from the run's first operation")
        if call.stdout != first.stdout:
            self.problems.append(f"{call.kind}: standard output differs from the run's first operation")

    def run(self, seconds: int) -> dict:
        detail: dict = {"workload": self.name, "seed": self.seed}
        if self.trace:
            import_ms, numpy = self.cli_probes(self.scenario_files()[0])
        else:
            setup_s, setup_raw = self.setup_seconds()
            detail["setup_raw_s"] = setup_raw
        if self.trace:
            import tracer

            self.tracer = tracer.Tracer()
            if self.in_process:
                tracer.install(self.tracer)
        deadline = time.perf_counter() + seconds
        runs = self.interleaved(lambda i: i > 0 and time.perf_counter() >= deadline,
                                self.one_operation, self.ref_units)
        walls = [wall * fw * 1e3 for (wall, _, _), (fw, _, _) in runs]
        cpus = [cpu * fc * 1e3 for (_, cpu, _), (_, fc, _) in runs]
        raw_walls = [wall * 1e3 for (wall, _, _), _ in runs]
        ref_units = [unit * 1e3 for _, (_, _, unit) in runs]
        rss = max(op_rss for (_, _, op_rss), _ in runs)
        for op, (_, (fw, _, _)) in zip(self.layer_ops, runs):
            op["_scale"] = fw
        if not rss:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail.update(ops=len(walls), op_ms_raw=raw_walls, op_ms_scaled=walls, ref_unit_ms=ref_units)

        import checker

        reference = checker.load_reference(self.root / inputs.DATA_DIR)
        for key, call in self.first.items():
            for problem in checker.check_call(reference, call.kind, call.argv, call.out, call.stdout):
                self.problems.append(f"{call.kind} {key}: {problem}")
        if self.problems:
            detail["problems"] = self.problems[:20]
        if self.failures:
            detail["failures"] = sorted(set(self.failures))

        if self.trace:
            metrics = self.layer_metrics(import_ms, numpy, walls)
            self.write_trace()
            detail["traced_op_ms_p50"] = statistics.median(walls)
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_ms.p50": {"value": statistics.median(walls), "unit": "ms"},
                "op_cpu_ms.p50": {"value": statistics.median(cpus), "unit": "ms"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            detail["op_ms_raw.p50"] = statistics.median(raw_walls)
        print(json.dumps(detail), file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def layer_metrics(self, import_ms: float, numpy: int, walls: list[float]) -> dict:
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "cli.import_ms":
                value = import_ms
            elif name == "cli.numpy_imported":
                value = numpy
            elif name == "trace.op_ms.p50":
                value = statistics.median(walls)
            else:
                scale = unit == "ms"
                value = statistics.median(
                    op.get(name, 0) * (op["_scale"] if scale else 1) for op in self.layer_ops
                )
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def write_trace(self) -> None:
        path = RUN_ROOT / "traces" / f"{self.name}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans or (self.tracer.spans if self.tracer else [])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.name, "seed": self.seed, "operations": self.layer_ops,
                       "spans": spans}, fh)


class InProcess(Workload):
    """Operations that call ``fedsust.cli.main`` in this process."""

    in_process = True

    def __init__(self, *args):
        super().__init__(*args)
        from fedsust import cli

        self.main = cli.main

    def execute(self, calls):
        main = self.main
        tracer = self.tracer
        w0, c0 = time.perf_counter(), time.process_time()
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    call.code = tracer.call("cli.main", main, call.argv) if tracer else main(call.argv)
            except (Exception, SystemExit) as exc:  # a failed call, not a benchmark crash
                call.code = f"exception {type(exc).__name__}"
                err.write(traceback.format_exc())
            call.stdout, call.stderr = out.getvalue(), err.getvalue()
        return time.perf_counter() - w0, time.process_time() - c0, 0.0


class ScoreSweep(InProcess):
    name = "score-sweep"
    ref_units = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.points = inputs.sweep_inputs(self.input_dir, self.seed)

    def scenario_files(self):
        return [p["config"] for p in self.points]

    def calls(self, index, op_dir):
        n = len(self.points)
        key = index % n
        p, q = self.points[key], self.points[(key + 1) % n]
        own = inputs.point_args(p)
        return [
            ((key, "validate"), Call("validate", ["validate", *own], None)),
            ((key, "score"), Call("score", ["score", *own, "--out", str(op_dir / "score")], op_dir / "score")),
            ((key, "compare"), Call("compare", ["compare", *inputs.compare_args(p, q),
                                                "--out", str(op_dir / "compare")], op_dir / "compare")),
        ]


class Simulate(InProcess):
    def calls(self, index, op_dir):
        argv = ["simulate", "--config", self.config, *self.extra, "--out", str(op_dir)]
        return [((0,), Call("simulate", argv, op_dir))]

    def scenario_files(self):
        return [self.config]


class SimDesk(Simulate):
    name = "sim-desk"
    setup_modules = "fedsust.cli,fedsust.fedsim"

    def __init__(self, *args):
        super().__init__(*args)
        spec = inputs.sim_desk_inputs(self.seed)
        self.config, self.extra = spec["config"], ["--seed", str(spec["seed"])]


class SimWide(Simulate):
    name = "sim-wide"
    setup_modules = "fedsust.cli,fedsust.fedsim"

    def __init__(self, *args):
        super().__init__(*args)
        self.config, self.extra = inputs.sim_wide_inputs(self.input_dir, self.seed)["config"], []


class CliCold(Workload):
    """One fresh process per call, through the ``fedsust`` console entry point."""

    name = "cli-cold"
    in_process = False

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = inputs.cli_inputs(self.input_dir, self.seed)
        # What the installed console script runs (``fedsust = "fedsust.cli:main"``).
        self.entry = self.run_dir / "fedsust"
        self.entry.write_text("import sys\nfrom fedsust.cli import main\n\nsys.exit(main())\n")
        self.traced_entry = BENCH_DIR / "traced_cli.py"

    def scenario_files(self):
        # The NaN scenario is left out: it has the uc_a shape, its parse is
        # timed inside the operation, and once the program rejects it the
        # set-up probe would fail on it.
        s = self.spec
        return [s["point"]["config"], *s["proposals"], s["uc_d"]]

    def calls(self, index, op_dir):
        s = self.spec
        own = inputs.point_args(s["point"])
        pillars = [arg for path in s["proposal_pillars"] for arg in ("--pillars", path)]
        return [
            (("validate",), Call("validate", ["validate", *own], None)),
            (("score",), Call("score", ["score", *own, "--out", str(op_dir / "score")], op_dir / "score")),
            (("compare",), Call("compare", [
                "compare", "--config", s["proposals"][0], "--config", s["proposals"][1], *pillars,
                "--out", str(op_dir / "compare")], op_dir / "compare")),
            (("simulate",), Call("simulate", [
                "simulate", "--config", s["uc_d"], "--seed", str(s["uc_d_seed"]),
                "--out", str(op_dir / "simulate")], op_dir / "simulate")),
            (("simulate-nan",), Call("simulate-nan", [
                "simulate", "--config", s["nan"], "--out", str(op_dir / "nan")], op_dir / "nan")),
        ]

    def execute(self, calls):
        wall = cpu = rss = 0.0
        summaries = []
        for i, call in enumerate(calls):
            logs = call.out.parent if call.out is not None else self.run_dir / "ops"
            logs.mkdir(parents=True, exist_ok=True)
            out_path, err_path = logs / f"{i}.stdout", logs / f"{i}.stderr"
            env, entry = self.env, self.entry
            if self.trace:
                env = dict(self.env, FEDSUST_BENCH_TRACE=str(logs / f"{i}.trace.json"))
                entry = self.traced_entry
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                call.code, w, usage = self.spawn([sys.executable, str(entry), *call.argv], out, err, env)
            wall += w
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)
            call.stdout = out_path.read_text(encoding="utf-8")
            call.stderr = err_path.read_text(encoding="utf-8")
            trace_path = logs / f"{i}.trace.json"
            if self.trace and trace_path.exists():  # absent if the child died early
                record = json.loads(trace_path.read_text(encoding="utf-8"))
                summaries.append(record["summary"])
                self.spans.append({"call": call.kind, "spans": record["spans"]})
        if self.trace:
            merged: dict = {}
            for summary in summaries:
                for name, value in summary.items():
                    merged[name] = merged.get(name, 0) + value
            self.layer_ops.append(merged)
        return wall, cpu, rss

    def passes(self, call):
        if call.kind != "simulate-nan":
            return call.code == 0
        import checker

        return checker.nan_call_passes(call.code, call.stderr, call.out)


WORKLOADS = {w.name: w for w in (CliCold, ScoreSweep, SimDesk, SimWide)}


def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_alarm(signum, frame):
    raise TimeLimit("run exceeded its time limit")


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "fedsust" / "__init__.py").is_file():
        print("error: run from the root of a fedsust checkout (src/fedsust not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # One core for this process and every child: the reference blocks then
    # time the same core the operations ran on, and a child's threads cannot
    # borrow a second core that other tenants may or may not be using.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(args.seconds + TIME_MARGIN_S)
    run_dir = RUN_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        shutil.rmtree(run_dir, ignore_errors=True)
        workload = WORKLOADS[args.workload](root, run_dir.resolve(), args.seed, bool(args.trace))
        result = workload.run(args.seconds)
    except (BenchError, TimeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
