"""Command-line front door: validate, score, simulate, and compare scenarios.

Exit codes: 0 success, 1 configuration/validation failure (a command-line
usage error included), 2 reference-data miss (unknown country, hardware
model, or unresolvable location). Every error prints a single
machine-parsable line to stderr of the form ``error: <category>: <detail>``
with category ``validation``, ``reference-data`` or ``io``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ConfigError, check_seed, load_scenario
from .fedsim import price_fleet, run_federation
from .refdata import ReferenceDataError, ReferenceTables
from .report import (
    EXTERNAL_PILLAR_IDS,
    build_trust_report,
    display_score,
    emissions_summary,
    load_pillar_fixture,
    populate_factsheet,
    render_report,
    write_atomic,
    write_report,
)
from .scoring import (
    ScoreError,
    ScoreNode,
    aggregate,
    apply_weights,
    load_weight_config,
    trust_score,
)
from .sustainability import (
    PILLAR_ID,
    assess_carbon,
    assess_complexity,
    assess_hardware,
    build_sustainability_node,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REFDATA = 2

_PILLAR_LEVEL_IDS = frozenset((PILLAR_ID, *EXTERNAL_PILLAR_IDS))


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ConfigError, ScoreError, ReferenceDataError, OSError) as exc:
        category = ("reference-data" if isinstance(exc, ReferenceDataError)
                    else "io" if isinstance(exc, OSError) else "validation")
        # each unprintable character escaped as in a repr, so a line break never starts a second line
        detail = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error: {category}: {detail}", file=sys.stderr)
        return EXIT_REFDATA if category == "reference-data" else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: one ``error:`` line and exit 1, not usage and exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache  # one parser per process: it never changes, and building it costs far more than a parse
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedsust",
        description="Sustainability and trust scoring for federated-learning configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, multi_config: bool = False) -> None:
        if multi_config:
            p.add_argument("--config", action="append", required=True,
                           help="scenario file (give twice: first A, then B)")
        else:
            p.add_argument("--config", required=True, help="scenario file (JSON)")
        p.add_argument("--weights", help="weight file overriding tree and pillar weights (JSON)")
        p.add_argument("--pillars", action="append",
                       help="external pillar scores (JSON); repeatable for compare")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--allow-partial", action="store_true",
                       help="renormalize around missing metrics/pillars instead of failing")
        p.add_argument("--seed", type=int, help="override the scenario seed")

    p_validate = sub.add_parser("validate", help="check a scenario without writing outputs")
    common(p_validate)
    p_validate.set_defaults(handler=cmd_validate)

    p_score = sub.add_parser("score", help="score a scenario from configuration alone")
    common(p_score)
    p_score.set_defaults(handler=cmd_score)

    p_sim = sub.add_parser("simulate", help="run the federation loop and track emissions")
    common(p_sim)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); has no effect, "
                            "the simulator runs serially")
    p_sim.set_defaults(handler=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="score two scenarios and rank them")
    common(p_cmp, multi_config=True)
    p_cmp.set_defaults(handler=cmd_compare)

    return parser


def _read_weights(args) -> dict:
    return load_weight_config(args.weights) if args.weights else {}


def _evaluate(args, tables: ReferenceTables, config_path: str, which: int = 0,
              read_weights=None):
    """The one pipeline of every command: returns ``(config, trust report, fleet prices)``.

    Parses the scenario and applies ``--seed``, scores the pillar under the
    weight file's tree weights, prices the fleet (an overflowing phase is a
    validation error), loads the ``which``-th ``--pillars`` file (the last
    one when fewer are given; more than ``--config`` files is an error) and
    builds the trust report without its emissions block. The weight file is
    read by ``read_weights()`` when given (compare's one reading for both
    sides), else here.
    """
    configs = args.config if isinstance(args.config, list) else [args.config]
    if args.pillars and len(args.pillars) > len(configs):
        raise ConfigError(
            f"got {len(args.pillars)} --pillars files for {len(configs)} --config file(s)"
        )
    config = load_scenario(config_path)
    if args.seed is not None:
        config = config._replace(seed=check_seed(args.seed))
    weights = read_weights() if read_weights else _read_weights(args)
    tree_weights = {k: v for k, v in weights.items() if k not in _PILLAR_LEVEL_IDS}
    pillar_weights = {k: v for k, v in weights.items() if k in _PILLAR_LEVEL_IDS}
    scored = _score_pillar(config, tables, tree_weights, args.allow_partial)
    prices = price_fleet(config, tables)
    externals = load_pillar_fixture(args.pillars[min(which, len(args.pillars) - 1)]) if args.pillars else None
    report = build_trust_report(config, scored, externals, pillar_weights=pillar_weights,
                                allow_partial=args.allow_partial)
    return config, report, prices


def _score_pillar(config, tables, tree_weights, allow_partial) -> ScoreNode:
    carbon = assess_carbon(config, tables.grid, tables.locations)
    hardware = assess_hardware(config, tables.hardware)
    complexity = assess_complexity(config)
    node = build_sustainability_node(carbon, hardware, complexity)
    known = {n.id for n in node.walk()}
    unknown = sorted(set(config.score_overrides) - known)
    if unknown:
        raise ConfigError(f"field 'score_overrides' names unknown node(s): {', '.join(map(repr, unknown))}")
    if tree_weights:
        unknown_weights = sorted(set(tree_weights) - known)
        if unknown_weights:
            raise ConfigError(f"weight file names unknown node(s): {', '.join(map(repr, unknown_weights))}")
        node = apply_weights(node, tree_weights)
    return aggregate(node, overrides=config.score_overrides, allow_partial=allow_partial)


def _print_scores(report: dict) -> None:
    print(f"sustainability: {report['pillars'][PILLAR_ID]['score']}")
    print(f"trust: {report['trust']['score'] if report['trust'] else 'n/a (no external pillars)'}")


def cmd_validate(args) -> int:
    config, _, _ = _evaluate(args, ReferenceTables.load(), args.config)
    print(f"ok: scenario '{config.name}' is valid")
    return EXIT_OK


def cmd_score(args) -> int:
    _, report, _ = _evaluate(args, ReferenceTables.load(), args.config)
    out = Path(args.out)
    write_atomic(out / "trust_report.json", render_report(report))
    _print_scores(report)
    print(f"wrote: {out / 'trust_report.json'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"field 'workers' must be >= 1, got {args.workers}")
    tables = ReferenceTables.load()
    config, report, prices = _evaluate(args, tables, args.config)
    state = run_federation(config, prices=prices)
    factsheet = populate_factsheet(config, state)
    emissions = report["emissions"] = emissions_summary(state)

    out = Path(args.out)
    write_atomic(out / "trust_report.json", render_report(report))
    write_report(out / "factsheet.json", factsheet)
    write_atomic(out / "emissions.csv", state.emissions.to_csv_bytes())
    _print_scores(report)
    print(f"estimated emissions: {emissions['total_co2eq_g_raw']:.6g} gCO2eq "
          f"over {emissions['records']} records")
    print(f"wrote: {out / 'trust_report.json'}, {out / 'factsheet.json'}, {out / 'emissions.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if len(args.config) != 2:
        raise ConfigError(f"compare needs exactly two --config arguments, got {len(args.config)}")
    tables = ReferenceTables.load()
    read_weights = functools.cache(functools.partial(_read_weights, args))  # read at side A's turn
    sides = []
    for i, config_path in enumerate(args.config):
        config, report, _ = _evaluate(args, tables, config_path, which=i, read_weights=read_weights)
        if report["trust"] is None:
            raise ConfigError("compare needs external pillar scores; pass --pillars")
        external = [e["score_raw"] for _, e in sorted(report["pillars"].items()) if e["source"] == "external"]
        trust_without = trust_score(external, [1.0 / len(external)] * len(external))
        sides.append({
            "name": config.name,
            "pillars": report["pillars"],
            "trust_with_sustainability": report["trust"],
            "trust_without_sustainability": {
                "score": display_score(trust_without),
                "score_raw": trust_without,
            },
        })

    a, b = sides
    pillar_ids = sorted(set(a["pillars"]) | set(b["pillars"]))
    deltas = {}
    for pillar in pillar_ids:
        sa = a["pillars"].get(pillar)
        sb = b["pillars"].get(pillar)
        deltas[pillar] = (
            None if sa is None or sb is None else sb["score_raw"] - sa["score_raw"]
        )
    raw_a = a["trust_with_sustainability"]["score_raw"]
    raw_b = b["trust_with_sustainability"]["score_raw"]
    winner = a["name"] if raw_a > raw_b else b["name"] if raw_b > raw_a else "tie"
    comparison = {
        "a": a,
        "b": b,
        "pillar_deltas_raw": deltas,
        "trust_delta_raw": raw_b - raw_a,
        "ranked_first": winner,
    }
    out = Path(args.out)
    write_atomic(out / "comparison.json", render_report(comparison))

    name_w = max(len(a["name"]), len(b["name"]), len("pillar"))
    print(f"{'pillar':<24} {a['name']:>{name_w}} {b['name']:>{name_w}}")
    for pillar in pillar_ids:
        da = a["pillars"].get(pillar)
        db = b["pillars"].get(pillar)
        print(f"{pillar:<24} {da['score'] if da else '-':>{name_w}} "
              f"{db['score'] if db else '-':>{name_w}}")
    print(f"{'trust (external only)':<24} {a['trust_without_sustainability']['score']:>{name_w}} "
          f"{b['trust_without_sustainability']['score']:>{name_w}}")
    print(f"{'trust (all pillars)':<24} {a['trust_with_sustainability']['score']:>{name_w}} "
          f"{b['trust_with_sustainability']['score']:>{name_w}}")
    print(f"ranked first: {winner}")
    print(f"wrote: {out / 'comparison.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
