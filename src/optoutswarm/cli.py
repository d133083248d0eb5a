"""Command-line front end: validate scenario files, run them, sweep seeds."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import logging
import os
import sys
from pathlib import Path

from optoutswarm import scenario as scenario_mod
from optoutswarm import simulation
from optoutswarm.scenario import InvalidScenario

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2


def _configure_logging() -> None:
    level_name = os.environ.get("OPTOUTSWARM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_sweep(text: str) -> range:
    try:
        lo, hi = text.split("..", 1)
        sweep = range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sweep must look like A..B, got {text!r}"
        ) from None
    if len(sweep) == 0:
        raise argparse.ArgumentTypeError(f"sweep {text!r} is empty")
    return sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optoutswarm",
        description="Deterministic simulator for coordinated anti-spam opt-out campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run a scenario file")
    run_cmd.add_argument("scenario", help="path to a scenario JSON file")
    seeds = run_cmd.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    seeds.add_argument(
        "--sweep",
        type=_parse_sweep,
        default=None,
        metavar="A..B",
        help="run once per seed in the inclusive range",
    )
    run_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the metrics stream here (per-seed suffix when sweeping)",
    )
    run_cmd.add_argument(
        "--summary",
        choices=("table", "json-lines"),
        default="table",
        help="summary format printed to stdout",
    )

    validate_cmd = sub.add_parser("validate", help="check a scenario file without running it")
    validate_cmd.add_argument("scenario", help="path to a scenario JSON file")
    return parser


def _out_path(base: str, seed: int, multiple: bool) -> Path:
    path = Path(base)
    if not multiple:
        return path
    return path.with_name(f"{path.stem}-seed{seed}{path.suffix}")


def _tmp_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def _in_place(path: Path) -> bool:
    """Whether `path` is written as it is: a FIFO or a device, no file to replace."""
    return path.exists() and not path.is_file()


def _check_writable(path: Path) -> None:
    """Raise OSError unless a run could write `path`; creates nothing that stays."""
    path = Path(os.path.realpath(path))
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    if not _in_place(path):
        tmp = _tmp_path(path)
        tmp.touch()
        tmp.unlink()


def _write_run(scn: scenario_mod.Scenario, path: Path) -> simulation.MetricsReport:
    with open(path, "w", encoding="utf-8") as out:
        report = simulation.run(scn, out.write)
        simulation.write_summary(report.summary, out.write)
    return report


def _run_to_file(scn: scenario_mod.Scenario, path: Path) -> simulation.MetricsReport:
    """Stream the run's NDJSON to a temporary file beside the file `path`
    names, through any symlink, then rename it into place, so a failed run
    leaves that file untouched. A FIFO or a device is written directly."""
    path = Path(os.path.realpath(path))
    if _in_place(path):
        return _write_run(scn, path)
    tmp = _tmp_path(path)
    try:
        report = _write_run(scn, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return report


def _print_summary_table(seed: int, report: simulation.MetricsReport) -> None:
    summary = report.summary
    totals = summary["totals"]
    parts = [
        f"seed={seed}",
        f"campaigns_launched={totals['campaigns_launched']}",
        f"honest_joins_on_adversarial={totals['honest_joins_on_adversarial']}",
    ]
    for url, ratio in sorted(summary["convergence"].items()):
        parts.append(f"convergence[{url}]={ratio:.3f}")
    for url, site in sorted(summary["sites"].items()):
        parts.append(f"cost[{url}]={site['traffic_cost']:.6f}")
        parts.append(f"lost_revenue[{url}]={site['lost_revenue']:.2f}")
    for adversary in summary["adversaries"]:
        counters = ",".join(
            f"{name}={value}" for name, value in adversary["counters"].items()
        )
        parts.append(f"adversary[{adversary['strategy']}]=({counters or 'idle'})")
    print("  ".join(parts))


def cmd_run(args: argparse.Namespace) -> int:
    base = scenario_mod.load_file(args.scenario)
    seeds = list(args.sweep) if args.sweep is not None else [
        args.seed if args.seed is not None else base.seed
    ]
    # an overriding seed gets the same checks as the file's, as each is built
    runs = [dataclasses.replace(base, seed=seed) for seed in seeds]
    multiple = len(runs) > 1
    if args.out:
        try:
            for seed in seeds:
                _check_writable(_out_path(args.out, seed, multiple))
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_INVALID
    for seed, scn in zip(seeds, runs):
        if args.out:
            path = _out_path(args.out, seed, multiple)
            try:
                report = _run_to_file(scn, path)
            except OSError as exc:  # a run does no I/O but its output's
                print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
                return EXIT_INVALID
        else:
            report = simulation.run(scn, lambda _line: None)
        if args.summary == "json-lines":
            print(json.dumps({"seed": seed, **report.summary}, sort_keys=True))
        else:
            _print_summary_table(seed, report)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scn = scenario_mod.load_file(args.scenario)
    print(json.dumps(scenario_mod.to_dict(scn), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_validate(args)
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # anything unexpected is an internal failure
        logging.getLogger(__name__).exception("internal failure")
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
