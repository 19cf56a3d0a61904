"""Command-line interface of the reproduction library.

Installed as ``python -m repro``; the subcommands cover the common workflows:

``run``
    Execute one gossiping protocol on a freshly sampled graph and print the
    cost summary (optionally as JSON).

``scenarios``
    The scenario registry front-end: ``scenarios list`` shows every
    registered experiment scenario; ``scenarios run`` executes one or more of
    them through the resumable, *supervised* sweep engine (``--jobs`` for
    process parallelism, ``--out`` for the on-disk result store + exports,
    ``--resume`` to skip already-persisted (configuration, repetition) pairs
    after an interruption, ``--smoke`` for the tiny CI scale).  Sweeps are
    fault tolerant: failing tasks are retried with seeded backoff
    (``--max-retries``), hung tasks are reaped (``--timeout``), dead worker
    pools are respawned, and permanently failing configurations are
    quarantined — the command prints a supervision report and exits with
    code 3 when any configuration was quarantined.  ``--chaos kill=1,error=1``
    injects deterministic faults for drills (see ``docs/robustness.md``);
    Ctrl-C flushes the store and prints the exact resume command.

``results``
    Query a result store without re-scanning JSONL: ``results query`` lists
    completed records with equality filters, ``results stats`` prints
    per-metric statistics (count/mean/std/min/max/percentiles) or grouped
    aggregates, and ``results rebuild`` re-derives the SQLite query index
    from the JSONL source of truth (see ``docs/caching.md``).

``table1``
    Print the paper's Table 1 constants resolved for the given sizes.

``graph-info``
    Sample a graph from a spec and print its structural profile (degrees,
    connectivity, spectral gap, conductance, distance estimates).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .analysis import RetryPolicy
from .core import (
    CLOCKS,
    FastGossiping,
    LeaderElection,
    MemoryGossiping,
    PushPullGossip,
    PushSumGossip,
    table1_rows,
)
from .engine import MessageAccounting
from .engine.chaos import FAULT_KINDS, ChaosSpec, parse_chaos_counts
from .experiments import (
    all_scenarios,
    get_scenario,
    resolve_config,
    run_scenario,
    scenario_names,
    scenario_plot,
)
from .graphs import GraphSpec, make_graph, paper_edge_probability, profile_graph
from .io import ResultStore, format_records, format_table, save_json, to_jsonable

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Randomized gossiping on random graphs (Elsässer & Kaaser, IPDPS'15).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one gossiping protocol")
    run_parser.add_argument(
        "--protocol",
        choices=("push-pull", "fast-gossiping", "memory", "push-sum"),
        default="fast-gossiping",
        help="gossiping protocol to execute",
    )
    run_parser.add_argument(
        "--clock",
        choices=CLOCKS,
        default="sync",
        help="execution clock: synchronous rounds or continuous-time "
        "Poisson wakeups (push-pull and push-sum only)",
    )
    run_parser.add_argument("--nodes", "-n", type=int, default=1024, help="graph size")
    run_parser.add_argument(
        "--graph",
        choices=("erdos_renyi", "random_regular", "complete", "hypercube", "power_law"),
        default="erdos_renyi",
        help="graph family",
    )
    run_parser.add_argument(
        "--expected-degree",
        type=float,
        default=None,
        help="expected degree (defaults to the paper's log^2 n)",
    )
    run_parser.add_argument("--seed", type=int, default=1, help="random seed")
    run_parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    run_parser.set_defaults(func=_cmd_run)

    scenario_parser = subparsers.add_parser(
        "scenarios", help="list or run registered experiment scenarios"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)

    list_parser = scenario_sub.add_parser("list", help="list the scenario registry")
    list_parser.set_defaults(func=_cmd_scenarios_list)

    srun_parser = scenario_sub.add_parser(
        "run", help="run scenarios through the resumable sweep engine"
    )
    srun_parser.add_argument(
        "names",
        nargs="+",
        metavar="scenario",
        help=f"scenario name(s); one of: {', '.join(scenario_names())}",
    )
    srun_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep (default 1)"
    )
    srun_parser.add_argument(
        "--out",
        default=None,
        help="output directory; enables the JSONL result store (under OUT/store) "
        "and persists the aggregated rows",
    )
    srun_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip (configuration, repetition) pairs already in the store "
        "(requires --out)",
    )
    srun_parser.add_argument(
        "--cache-from",
        default=None,
        metavar="STORE_DIR",
        help="secondary read-only result store (e.g. a team-shared OUT/store "
        "directory); pairs found there with matching seeds are copied into "
        "the primary store instead of being executed (requires --out)",
    )
    srun_parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-scale configuration"
    )
    srun_parser.add_argument(
        "--plot", action="store_true", help="render an ASCII plot of the main series"
    )
    srun_parser.add_argument("--seed", type=int, default=None, help="override base seed")
    srun_parser.add_argument(
        "--max-retries",
        type=int,
        default=RetryPolicy.max_retries,
        help="supervised retry budget per (configuration, repetition) before "
        f"the pair is quarantined (default {RetryPolicy.max_retries})",
    )
    srun_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task wall-clock timeout in seconds (kills and respawns the "
        "worker pool; default: no timeout)",
    )
    srun_parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministically inject faults, e.g. 'kill=1,error=1' "
        f"(kinds: {', '.join(FAULT_KINDS)})",
    )
    srun_parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed of the chaos fault sampler (default 0)",
    )
    srun_parser.add_argument(
        "--chaos-attempts",
        type=int,
        default=1,
        help="attempts each injected fault keeps firing for; above "
        "--max-retries this simulates a poison configuration (default 1)",
    )
    srun_parser.set_defaults(func=_cmd_scenarios_run)

    results_parser = subparsers.add_parser(
        "results", help="query a result store through its SQLite index"
    )
    results_sub = results_parser.add_subparsers(dest="results_command", required=True)

    rquery_parser = results_sub.add_parser(
        "query", help="list completed records of one scenario"
    )
    rquery_parser.add_argument("store", help="store directory (e.g. results/store)")
    rquery_parser.add_argument("scenario", help="scenario name (JSONL file stem)")
    rquery_parser.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="equality filter on a record field (repeatable; values are "
        "parsed as int, float, true/false, then string)",
    )
    rquery_parser.add_argument(
        "--columns",
        default=None,
        help="comma-separated columns to print (default: all of the first row)",
    )
    rquery_parser.add_argument("--limit", type=int, default=None, help="stop after N rows")
    rquery_parser.add_argument("--json", action="store_true", help="print rows as JSON")
    rquery_parser.set_defaults(func=_cmd_results_query)

    rstats_parser = results_sub.add_parser(
        "stats", help="per-metric statistics or grouped aggregates"
    )
    rstats_parser.add_argument("store", help="store directory (e.g. results/store)")
    rstats_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario name; omitted: print a per-scenario overview",
    )
    rstats_parser.add_argument(
        "--metrics",
        default=None,
        help="comma-separated numeric fields (default: every numeric field)",
    )
    rstats_parser.add_argument(
        "--group-by",
        default=None,
        help="comma-separated group columns; switches to the grouped "
        "mean/std aggregate used by the experiment reports",
    )
    rstats_parser.add_argument(
        "--percentiles",
        default="50,90,99",
        help="comma-separated percentile ranks for the stats view "
        "(default 50,90,99)",
    )
    rstats_parser.add_argument("--json", action="store_true", help="print rows as JSON")
    rstats_parser.set_defaults(func=_cmd_results_stats)

    rrebuild_parser = results_sub.add_parser(
        "rebuild", help="re-derive the SQLite index from the JSONL files"
    )
    rrebuild_parser.add_argument("store", help="store directory (e.g. results/store)")
    rrebuild_parser.set_defaults(func=_cmd_results_rebuild)

    table_parser = subparsers.add_parser("table1", help="print Table 1 constants")
    table_parser.add_argument(
        "sizes", nargs="*", type=int, default=[1024, 65536, 10**6], help="graph sizes"
    )
    table_parser.set_defaults(func=_cmd_table1)

    info_parser = subparsers.add_parser("graph-info", help="profile a sampled graph")
    info_parser.add_argument("--nodes", "-n", type=int, default=1024, help="graph size")
    info_parser.add_argument(
        "--graph",
        choices=("erdos_renyi", "random_regular", "complete", "hypercube", "power_law"),
        default="erdos_renyi",
        help="graph family",
    )
    info_parser.add_argument("--expected-degree", type=float, default=None)
    info_parser.add_argument("--seed", type=int, default=1)
    info_parser.set_defaults(func=_cmd_graph_info)

    return parser


def _graph_spec(kind: str, n: int, expected_degree: Optional[float]) -> GraphSpec:
    """Build a GraphSpec from CLI arguments."""
    if kind == "erdos_renyi":
        params = {
            "p": (
                paper_edge_probability(n)
                if expected_degree is None
                else min(1.0, expected_degree / max(n - 1, 1))
            ),
            "require_connected": True,
        }
        return GraphSpec("erdos_renyi", n, params)
    if kind == "random_regular":
        degree = int(expected_degree or max(4, round(paper_edge_probability(n) * (n - 1))))
        if (degree * n) % 2:
            degree += 1
        return GraphSpec("random_regular", n, {"d": degree, "require_connected": True})
    if kind == "power_law":
        return GraphSpec("power_law", n, {"exponent": 2.5})
    return GraphSpec(kind, n)


def _sample_graph(args: argparse.Namespace):
    """The ``(spec, graph)`` that ``--graph``/``--nodes``/``--expected-degree``
    describe, or ``None`` after reporting why the input is unusable: a size
    or degree the family rejects (ValueError), or no connected sample
    (RuntimeError)."""
    try:
        spec = _graph_spec(args.graph, args.nodes, args.expected_degree)
        return spec, make_graph(spec, rng=args.seed)
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    sampled = _sample_graph(args)
    if sampled is None:
        return 2
    spec, graph = sampled
    protocols = {
        "push-pull": PushPullGossip(),
        "fast-gossiping": FastGossiping(),
        "memory": MemoryGossiping(leader=0),
        "push-sum": PushSumGossip(),
    }
    protocol = protocols[args.protocol]
    if args.clock not in protocol.supported_clocks:
        print(
            f"error: protocol {args.protocol!r} does not support the "
            f"{args.clock!r} clock (supported: {protocol.supported_clocks})",
            file=sys.stderr,
        )
        return 2
    # Sync-only protocols do not take a clock argument at all.
    run_kwargs = {"clock": args.clock} if len(protocol.supported_clocks) > 1 else {}
    try:
        result = protocol.run(graph, rng=args.seed + 1, **run_kwargs)
    except ValueError as error:  # a graph the protocol cannot run on
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = result.summary()
    summary["graph"] = spec.describe()
    if args.json:
        print(json.dumps(to_jsonable(summary), indent=2, sort_keys=True))
    else:
        rows = [
            ["graph", spec.describe()],
            ["protocol", result.protocol],
            ["completed", result.completed],
            ["rounds", result.rounds],
            ["packets/node", round(result.messages_per_node(MessageAccounting.PACKETS), 3)],
            ["opens/node", round(result.messages_per_node(MessageAccounting.OPENS), 3)],
            ["strict cost/node", round(result.messages_per_node(MessageAccounting.OPENS_AND_PACKETS), 3)],
        ]
        print(format_table(["field", "value"], rows, title="Gossiping run"))
    return 0 if result.completed else 1


def _print_plot(result) -> None:
    plot = scenario_plot(result)
    if plot:
        print()
        print(plot)


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    rows = [[spec.name, spec.result_name, spec.description] for spec in all_scenarios()]
    print(
        format_table(
            ["scenario", "result", "description"],
            rows,
            title="Registered experiment scenarios",
        )
    )
    return 0


def _resume_command(args: argparse.Namespace) -> str:
    """Reconstruct the command line that resumes an interrupted sweep."""
    parts = ["python", "-m", "repro", "scenarios", "run", *args.names]
    if args.out:
        parts += ["--out", str(args.out), "--resume"]
    if getattr(args, "cache_from", None):
        parts += ["--cache-from", str(args.cache_from)]
    if args.smoke:
        parts.append("--smoke")
    if args.jobs != 1:
        parts += ["--jobs", str(args.jobs)]
    if args.seed is not None:
        parts += ["--seed", str(args.seed)]
    if args.max_retries != RetryPolicy.max_retries:
        parts += ["--max-retries", str(args.max_retries)]
    if args.timeout is not None:
        parts += ["--timeout", str(args.timeout)]
    return " ".join(parts)


def _print_sweep_report(name: str, result) -> bool:
    """Print the supervision summary; returns True when degraded."""
    report = result.metadata.get("sweep_report")
    if not report:
        return False
    quarantined = report.get("quarantined", [])
    line = (
        f"{name} supervision: {report['ok']}/{report['total']} ok, "
        f"{report['retried']} retried ({report['retries']} retries), "
        f"{len(quarantined)} quarantined"
    )
    extras = [
        f"{report[field]} {label}"
        for field, label in (
            ("timeouts", "timeouts"),
            ("worker_crashes", "worker crashes"),
            ("pool_restarts", "pool restarts"),
        )
        if report.get(field)
    ]
    if extras:
        line += f" [{', '.join(extras)}]"
    print(line, file=sys.stderr)
    for failure in quarantined:
        print(
            f"  quarantined: key={failure['key']} repetition={failure['repetition']} "
            f"after {failure['attempts']} attempts ({failure['kind']}: "
            f"{failure['message']})",
            file=sys.stderr,
        )
    return bool(quarantined)


def _parse_where(items: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``FIELD=VALUE`` filters; values try int/float/bool."""
    where: Dict[str, object] = {}
    for item in items:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--where expects FIELD=VALUE, got {item!r}")
        value: object = raw
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    pass
        where[name] = value
    return where


def _open_query_index(directory: str):
    """Open a store directory's query index, or (None, exit_code) on error."""
    path = Path(directory)
    if not path.is_dir():
        print(f"error: {directory} is not a store directory", file=sys.stderr)
        return None, 2
    index = ResultStore(path).query_index
    if index is None:
        print(
            "error: `repro results` reads the query index, which needs the "
            "sqlite3 module; this Python cannot import it",
            file=sys.stderr,
        )
        return None, 2
    return index, 0


def _print_rows(rows, columns: Optional[str], as_json: bool, title: str) -> None:
    if as_json:
        print(json.dumps(to_jsonable(rows), indent=2, sort_keys=True))
        return
    if not rows:
        print(f"{title}: no rows")
        return
    names = (
        [c.strip() for c in columns.split(",") if c.strip()]
        if columns
        else list(rows[0].keys())
    )
    print(format_records(rows, names, title=title))


def _cmd_results_query(args: argparse.Namespace) -> int:
    index, code = _open_query_index(args.store)
    if index is None:
        return code
    try:
        where = _parse_where(args.where)
        rows = index.query(args.scenario, where=where or None, limit=args.limit)
    except ValueError as error:  # a bad --where or scenario name
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_rows(rows, args.columns, args.json, f"{args.scenario}: completed records")
    return 0


def _cmd_results_stats(args: argparse.Namespace) -> int:
    index, code = _open_query_index(args.store)
    if index is None:
        return code
    if args.scenario is None:
        rows = [
            {"scenario": name, **index.counts(name)} for name in index.scenario_names()
        ]
        _print_rows(rows, None, args.json, "result store overview")
        return 0
    metrics = (
        [m.strip() for m in args.metrics.split(",") if m.strip()] if args.metrics else None
    )
    try:
        if args.group_by:
            group_by = [g.strip() for g in args.group_by.split(",") if g.strip()]
            rows = index.aggregate(args.scenario, group_by, metrics or [])
            title = "grouped aggregate"
        else:
            try:
                percentiles = [float(q) for q in args.percentiles.split(",") if q.strip()]
            except ValueError:
                raise ValueError(f"bad --percentiles {args.percentiles!r}") from None
            rows = index.stats(args.scenario, metrics, percentiles=percentiles)
            title = "metric statistics"
    except KeyError as error:
        print(
            f"error: --group-by field {error.args[0]!r} is missing from "
            f"a completed {args.scenario} record",
            file=sys.stderr,
        )
        return 2
    except ValueError as error:  # bad scenario name, --percentiles or metric
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_rows(rows, None, args.json, f"{args.scenario}: {title}")
    return 0


def _cmd_results_rebuild(args: argparse.Namespace) -> int:
    index, code = _open_query_index(args.store)
    if index is None:
        return code
    for name in index.rebuild():
        counts = index.counts(name)
        print(
            f"rebuilt {name}: {counts['records']} records, "
            f"{counts['configurations']} configurations, "
            f"{counts['failures']} quarantined"
        )
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    if args.resume and not args.out:
        print("error: --resume requires --out (the store to resume from)", file=sys.stderr)
        return 2
    if args.cache_from and not args.out:
        print(
            "error: --cache-from requires --out (the primary store hits are "
            "copied into)",
            file=sys.stderr,
        )
        return 2
    if args.cache_from and not Path(args.cache_from).is_dir():
        print(f"error: --cache-from {args.cache_from} is not a directory", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    unknown = [name for name in args.names if name not in scenario_names()]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    try:
        policy = RetryPolicy(max_retries=args.max_retries, timeout=args.timeout)
        chaos = (
            ChaosSpec(
                counts=parse_chaos_counts(args.chaos),
                seed=args.chaos_seed,
                attempts=args.chaos_attempts,
            )
            if args.chaos
            else None
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else None
    store = ResultStore(out / "store") if out else None
    read_store = ResultStore(args.cache_from) if args.cache_from else None
    degraded = False
    try:
        for name in args.names:
            spec = get_scenario(name)
            config = resolve_config(
                spec, seed=args.seed, smoke=args.smoke, profile="cli"
            )

            def progress(done: int, total: int, _name: str = name) -> None:
                print(f"\r{_name}: {done}/{total} tasks", end="", file=sys.stderr, flush=True)

            try:
                result = run_scenario(
                    spec,
                    config=config,
                    n_jobs=args.jobs,
                    store=store if spec.run_override is None else None,
                    read_store=read_store if spec.run_override is None else None,
                    resume=args.resume,
                    progress=progress,
                    supervise=spec.run_override is None,
                    policy=policy if spec.run_override is None else None,
                    chaos=chaos if spec.run_override is None else None,
                )
            except RuntimeError as error:
                print(f"\nerror: {error}", file=sys.stderr)
                return 1
            print(file=sys.stderr)
            cache = result.metadata.get("cache")
            if cache:
                shared = (
                    f" ({cache['secondary_hits']} from --cache-from)"
                    if cache["secondary_hits"]
                    else ""
                )
                print(
                    f"{name} cache: {cache['hits']}/{cache['total']} pairs served "
                    f"from the store{shared}, {cache['executed']} executed",
                    file=sys.stderr,
                )
            degraded = _print_sweep_report(name, result) or degraded
            print(result.to_table())
            if args.plot:
                _print_plot(result)
            if out:
                paths = result.save(out)
                if store is not None and spec.run_override is None:
                    print(f"store: {store.path_for(spec.name)}")
                for label, path in paths.items():
                    print(f"saved {label}: {path}")
            print()
    except KeyboardInterrupt:
        # Every completed record was already flushed+fsynced by the store;
        # close it (flush + fsync again) and tell the user how to resume.
        if store is not None:
            store.close()
        print(file=sys.stderr)
        print(
            "interrupted — completed (configuration, repetition) records are "
            "safely on disk",
            file=sys.stderr,
        )
        if args.out:
            print(f"resume with:\n  {_resume_command(args)}", file=sys.stderr)
        return 130
    finally:
        if store is not None:
            store.close()
        if read_store is not None:
            read_store.close()
    if degraded:
        print(
            "error: one or more configurations were quarantined (see the "
            "supervision report above)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    for n in args.sizes:
        resolved = table1_rows(int(n))
        print(f"\nTable 1 constants for n = {n}")
        for algorithm, values in resolved.items():
            rows = [[key, value] for key, value in values.items() if key != "n"]
            print(format_table(["parameter", "value"], rows, title=algorithm))
    return 0


def _cmd_graph_info(args: argparse.Namespace) -> int:
    sampled = _sample_graph(args)
    if sampled is None:
        return 2
    spec, graph = sampled
    profile = profile_graph(graph, rng=args.seed, spectral=(graph.n <= 4096))
    rows = [[key, value] for key, value in profile.as_dict().items()]
    print(format_table(["property", "value"], rows, title=spec.describe()))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
