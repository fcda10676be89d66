"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-experiments table1
    repro-experiments fig3 --seeds 3 7 11
    repro-experiments fig8 --servers 1 2 5 10 --paper
    repro-experiments all --quick
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
import typing

from repro.config import OptimizerConfig
from repro.experiments import figures
from repro.experiments.report import render_figure
from repro.experiments.runner import RunSettings

__all__ = ["main"]


class _Experiment(typing.NamedTuple):
    """One runnable experiment: its function, sweep flags and --quick grid."""

    function: typing.Callable[..., figures.FigureResult]
    # CLI flag (argparse dest) -> (function parameter, conversion of the value)
    flags: dict[str, tuple[str, typing.Callable]]
    # function parameter -> value under --quick, unless a flag sets it
    quick: dict[str, object]


_first = operator.itemgetter(0)
_CACHE = {"cache": ("cache_fractions", tuple)}
_SERVERS = {"servers": ("server_counts", tuple)}
_CLIENTS = {"clients": ("client_counts", tuple)}
_QUICK_SERVERS = {"server_counts": (1, 2, 5, 10)}

_TABLES = {"table1": figures.table1, "table2": figures.table2}
_EXPERIMENTS = {
    "fig2": _Experiment(figures.figure2, _CACHE, {}),
    "fig3": _Experiment(figures.figure3, _CACHE, {}),
    "fig4": _Experiment(figures.figure4, _CACHE, {}),
    "fig5": _Experiment(figures.figure5, _CACHE, {}),
    "fig6": _Experiment(figures.figure6, _SERVERS, _QUICK_SERVERS),
    "fig7": _Experiment(figures.figure7, _SERVERS, _QUICK_SERVERS),
    "fig8": _Experiment(figures.figure8, _SERVERS, _QUICK_SERVERS),
    "fig10": _Experiment(figures.figure10, _SERVERS, _QUICK_SERVERS),
    "fig11": _Experiment(figures.figure11, _SERVERS, _QUICK_SERVERS),
    "qs-load": _Experiment(figures.qs_under_load_text, {}, {}),
    "fault-sweep": _Experiment(
        figures.availability_sweep, {"mtbf": ("mtbf_values", tuple)}, {"mtbf_values": (5.0, 20.0)}
    ),
    "function-shipping": _Experiment(
        figures.function_shipping,
        {"udf_costs": ("udf_costs", tuple)},
        {"udf_costs": (0.0, 8000.0, 128000.0)},
    ),
    "throughput-sweep": _Experiment(
        figures.throughput_sweep, _CLIENTS, {"client_counts": (1, 2, 4)}
    ),
    "utilization-timeline": _Experiment(
        figures.utilization_timeline, {"cache": ("cached_fraction", _first)}, {"interval": 1.0}
    ),
    "cache-warmup": _Experiment(
        figures.cache_warmup,
        {"queries": ("queries_per_client", int), "replacement": ("replacement", str)},
        {"queries_per_client": 3},
    ),
    "memory-contention": _Experiment(
        figures.memory_contention, _CLIENTS, {"client_counts": (2, 4)}
    ),
    "write-mix": _Experiment(
        figures.write_mix,
        {
            "write_fractions": ("write_fractions", tuple),
            "clients": ("num_clients", _first),
            "queries": ("queries_per_client", int),
        },
        {"write_fractions": (0.0, 0.5), "num_clients": 2, "queries_per_client": 2},
    ),
    "two-step-caching": _Experiment(figures.two_step_caching, _CACHE, {}),
}
_SWEEP_FLAGS = sorted({flag for e in _EXPERIMENTS.values() for flag in e.flags})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Performance Tradeoffs for "
            "Client-Server Query Processing' (SIGMOD 1996)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=[*_TABLES, "all", *sorted(_EXPERIMENTS)],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list every registered experiment name and exit",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, help="run seeds (placements)"
    )
    parser.add_argument(
        "--servers", type=int, nargs="+", default=None, help="server counts to sweep"
    )
    parser.add_argument(
        "--cache", type=float, nargs="+", default=None,
        help="cache fractions to sweep (0..1)",
    )
    parser.add_argument(
        "--mtbf", type=float, nargs="+", default=None,
        help="server MTBF values for the fault-sweep [s]",
    )
    parser.add_argument(
        "--clients", type=int, nargs="+", default=None,
        help="concurrent client counts for the throughput-sweep",
    )
    parser.add_argument(
        "--queries", type=int, default=None,
        help="stream length (queries per client) for the cache-warmup",
    )
    parser.add_argument(
        "--replacement", choices=["lru", "mru", "clock"], default=None,
        help="buffer-cache replacement policy for the cache-warmup",
    )
    parser.add_argument(
        "--write-fractions", type=float, nargs="+", default=None,
        help="write fractions to sweep for the write-mix (0..1)",
    )
    parser.add_argument(
        "--udf-costs", type=float, nargs="+", default=None,
        help="per-tuple UDF costs to sweep for the function-shipping",
    )
    parser.add_argument(
        "--paper", action="store_true",
        help="use the slower, higher-quality optimizer preset",
    )
    parser.add_argument(
        "--quick", action="store_true", help="three seeds and a sparse sweep"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "run sweep points on N worker processes (default 1 = serial); "
            "output is byte-identical to a serial run"
        ),
    )
    return parser


def _settings(args: argparse.Namespace) -> RunSettings:
    optimizer = OptimizerConfig.paper() if args.paper else OptimizerConfig.fast()
    settings = RunSettings(optimizer=optimizer)
    if args.seeds:
        settings = RunSettings(seeds=tuple(args.seeds), optimizer=optimizer)
    elif args.quick:
        settings = settings.quick()
    return settings


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _check_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject sweep flags that the single named experiment does not take."""
    experiment = _EXPERIMENTS.get(args.experiment)
    accepted = experiment.flags if experiment else {}
    ignored = [f for f in _SWEEP_FLAGS if getattr(args, f) is not None and f not in accepted]
    if ignored:
        takes = ", ".join(_option(f) for f in accepted) or "no sweep flags"
        parser.error(
            f"{args.experiment} does not take {', '.join(map(_option, ignored))} "
            f"(it takes {takes})"
        )


def _run_one(name: str, args: argparse.Namespace) -> None:
    experiment = _EXPERIMENTS[name]
    kwargs: dict = {"settings": _settings(args), "jobs": args.jobs}
    if args.quick:
        kwargs.update(experiment.quick)
    for flag, (parameter, convert) in experiment.flags.items():
        value = getattr(args, flag)
        if value is not None:
            kwargs[parameter] = convert(value)
    started = time.time()
    result = experiment.function(**kwargs)
    print(render_figure(result))
    print(f"\n[{name} regenerated in {time.time() - started:.1f}s]")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in [*_TABLES, *sorted(_EXPERIMENTS)]:
            print(name)
        return 0
    if args.experiment is None:
        parser.error("an experiment name (or --list) is required")
    if args.experiment != "all":
        _check_flags(parser, args)
    if args.experiment in _TABLES:
        print(_TABLES[args.experiment]())
        return 0
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _run_one(name, args)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
