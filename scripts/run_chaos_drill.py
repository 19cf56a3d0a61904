#!/usr/bin/env python
"""Chaos drill: prove a sweep survives injected faults with identical results.

The acceptance criterion of the fault-tolerance layer, as an executable:

1. **Reference leg** — run a scenario fault-free (supervised) and save its
   exports.
2. **Chaos leg** — run the same scenario at the same seed with an injected
   worker SIGKILL, a transient task fault and a corrupted store line; the run
   must complete with zero quarantines and exports *byte-identical* to the
   reference, the corrupt line must be skipped-and-reported by a fresh scan,
   and a ``--resume`` must re-run exactly the corrupted pair and heal the
   store.
3. **Quarantine leg** — inject a permanent fault (more attempts than the
   retry budget) into one configuration; the sweep must finish degraded
   (structured failure entries in the store, healthy configurations
   untouched) instead of aborting, and a chaos-free resume must supersede the
   quarantine with real records.

Exits nonzero on the first violated expectation::

    python scripts/run_chaos_drill.py [--scenario figure1] [--seed 7] [--out DIR]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from repro.analysis.supervisor import RetryPolicy
from repro.engine.chaos import ChaosSpec, Fault, FaultPlan
from repro.experiments import get_scenario, resolve_config, run_scenario
from repro.io import ResultStore
from repro.io.store import config_hash


def _run(spec, config, store_dir, out_dir, **kwargs):
    with ResultStore(store_dir) as store:
        result = run_scenario(spec, config=config, store=store, **kwargs)
    result.save(out_dir)
    return result


def _export_files(directory: Path):
    # The metadata export legitimately differs between runs: it embeds the
    # supervision report (crash/retry counters).  The *data* must not.
    return sorted(
        p
        for p in Path(directory).iterdir()
        if p.is_file() and not p.name.endswith("_metadata.json")
    )


def _check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        raise SystemExit(f"chaos drill failed: {label}")


def _compare_exports(reference: Path, candidate: Path) -> None:
    ref_files = _export_files(reference)
    _check(bool(ref_files), "reference run produced exports")
    for ref in ref_files:
        other = Path(candidate) / ref.name
        _check(other.exists(), f"{ref.name} exists after chaos")
        _check(
            other.read_bytes() == ref.read_bytes(),
            f"{ref.name} byte-identical to fault-free run",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="figure1", help="registry scenario name")
    parser.add_argument("--seed", type=int, default=7, help="base seed of both runs")
    parser.add_argument(
        "--chaos-seed", type=int, default=7, help="seed of the fault sampler"
    )
    parser.add_argument(
        "--out", default=None, help="work directory (default: a temp dir, deleted)"
    )
    args = parser.parse_args(argv)

    spec = get_scenario(args.scenario)
    if spec.run_override is not None:
        parser.error(f"scenario {args.scenario!r} does not run through the sweep engine")
    config = resolve_config(spec, seed=args.seed, profile="smoke")
    policy = RetryPolicy(max_retries=3, backoff_base=0.01, jitter=0.0)
    work = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="chaos-drill-"))
    work.mkdir(parents=True, exist_ok=True)

    try:
        print(f"chaos drill on scenario {args.scenario!r} (seed {args.seed})")

        print("reference leg: fault-free supervised run")
        reference = _run(
            spec, config, work / "ref-store", work / "ref-out",
            supervise=True, policy=policy,
        )
        report = reference.metadata["sweep_report"]
        _check(report["ok"] == report["total"], "all pairs completed")

        print("chaos leg: kill=1, error=1, corrupt=1")
        chaos = ChaosSpec(
            counts={"kill": 1, "error": 1, "corrupt": 1}, seed=args.chaos_seed
        )
        result = _run(
            spec, config, work / "chaos-store", work / "chaos-out",
            policy=policy, chaos=chaos,
        )
        report = result.metadata["sweep_report"]
        print(f"  supervision: {report['ok']}/{report['total']} ok, "
              f"{report['retries']} retries, {report['worker_crashes']} worker "
              f"crashes, {report['pool_restarts']} pool restarts")
        _check(report["worker_crashes"] >= 1, "worker SIGKILL was injected")
        _check(report["retries"] >= 1, "transient fault was retried")
        _check(not report["quarantined"], "no quarantine under transient chaos")
        _compare_exports(work / "ref-out", work / "chaos-out")

        scan = ResultStore(work / "chaos-store")
        corrupt = scan.corruption(spec.name)
        total = report["total"]
        _check(len(corrupt) == 1, "corrupted store line skipped and reported")
        _check(
            len(scan.completed(spec.name)) == total - 1,
            "corrupted pair dropped from the resume index",
        )
        resumed = run_scenario(
            spec, config=config, store=scan, resume=True, supervise=True
        )
        scan.close()
        resumed.save(work / "resumed-out")
        _check(
            resumed.metadata["sweep_report"]["total"] == 1,
            "resume re-ran exactly the corrupted pair",
        )
        healed = ResultStore(work / "chaos-store")
        _check(
            len(healed.completed(spec.name)) == total,
            "store healed by the resume",
        )
        healed.close()
        _compare_exports(work / "ref-out", work / "resumed-out")

        print("quarantine leg: permanent fault in one configuration")
        pairs = sorted(healed.completed(spec.name))
        poison_config = pairs[0][0]
        poison = FaultPlan(
            faults=tuple(
                Fault(kind="error", config=cfg, repetition=rep, attempts=99)
                for cfg, rep in pairs
                if cfg == poison_config
            )
        )
        degraded = _run(
            spec, config, work / "poison-store", work / "poison-out",
            policy=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.0),
            chaos=poison,
        )
        report = degraded.metadata["sweep_report"]
        _check(bool(report["quarantined"]), "poison configuration quarantined")
        _check(
            report["ok"] == report["total"] - len(report["quarantined"]),
            "healthy configurations all completed",
        )
        store = ResultStore(work / "poison-store")
        _check(
            len(store.failures(spec.name)) == len(report["quarantined"]),
            "structured failure entries persisted",
        )
        run_scenario(spec, config=config, store=store, resume=True, supervise=True)
        _check(
            not store.failures(spec.name)
            and len(store.completed(spec.name)) == report["total"],
            "chaos-free resume superseded the quarantine",
        )
        store.close()

        print("chaos drill passed")
        return 0
    finally:
        if args.out is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
