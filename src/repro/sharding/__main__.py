"""Run the sharding chaos suite and emit its convergence report.

Usage::

    python -m repro.sharding [--dir DIR] [--out FILE] [--seed N]
                             [--no-fsync] [--only {all,death,migration}]

Runs the seeded shard-death and split-under-load scenarios twice each
(the paired runs must produce byte-identical reports — chaos as a
reproducible test, not flakiness), then the placement and migration kill
sweeps (registration crashed at each two-phase crash point and inside
each journal append; the online split crashed at every migration
protocol kill point). Exits non-zero if
a gather raises instead of degrading, a coverage report is inexact, the
catalogs fail to converge byte-for-byte after rebalance or split, a
crashed migration fails to recover to the reference state, or any seeded
run pair diverges. ``--only`` narrows the suite to one scenario family
(the CI ``shard-chaos`` and ``migration-chaos`` jobs split along that
line); ``--out`` writes the JSON report those jobs upload and diff.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.sharding.chaos import (
    migration_kill_sweep,
    placement_kill_sweep,
    shard_death_scenario,
    split_under_load_scenario,
)

REPORT_FORMAT = "repro-shard-chaos/2"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sharding",
        description="Seeded shard-death and online-split chaos for the "
        "sharded kernel fleet.",
    )
    parser.add_argument(
        "--dir", default=None, help="scratch directory (default: a temp dir)"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON convergence report here"
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--no-fsync", action="store_true", help="skip fsync calls (faster)"
    )
    parser.add_argument(
        "--only",
        choices=("all", "death", "migration"),
        default="all",
        help="run only one scenario family (default: all)",
    )
    args = parser.parse_args(argv)
    base = Path(args.dir or tempfile.mkdtemp(prefix="repro-sharding-"))
    if args.dir and base.exists() and any(base.iterdir()):
        # a reused scratch dir replays recovered placements instead of
        # fresh registrations, which is a different (and wrong) scenario
        parser.error(f"scratch directory {base} is not empty")
    fsync = not args.no_fsync

    ok = True
    deterministic = True
    report: dict[str, object] = {
        "format": REPORT_FORMAT,
        "seed": args.seed,
        "only": args.only,
    }

    if args.only in ("all", "death"):
        print(f"seeded shard-death scenario (seed={args.seed}) under {base}")
        first = shard_death_scenario(
            base / "run-1", seed=args.seed, fsync=fsync
        )
        second = shard_death_scenario(
            base / "run-2", seed=args.seed, fsync=fsync
        )
        print(first.describe())
        same = first.to_dict() == second.to_dict()
        if not same:
            print("NON-DETERMINISTIC: two shard-death runs diverged")
        print("placement kill sweep (registration crashed at every crash point):")
        sweep = placement_kill_sweep(base / "sweep", seed=args.seed, fsync=fsync)
        print(sweep.describe())
        report["scenario"] = first.to_dict()
        report["sweep"] = sweep.to_dict()
        ok = ok and first.ok and second.ok and same and sweep.ok
        deterministic = deterministic and same

    if args.only in ("all", "migration"):
        print(f"seeded split-under-load scenario (seed={args.seed})")
        split_first = split_under_load_scenario(
            base / "split-1", seed=args.seed, fsync=fsync
        )
        split_second = split_under_load_scenario(
            base / "split-2", seed=args.seed, fsync=fsync
        )
        print(split_first.describe())
        same = split_first.to_dict() == split_second.to_dict()
        if not same:
            print("NON-DETERMINISTIC: two split-under-load runs diverged")
        print("migration kill sweep (split crashed at every protocol point):")
        migration_sweep = migration_kill_sweep(
            base / "migration-sweep", seed=args.seed, fsync=fsync
        )
        print(migration_sweep.describe())
        report["split"] = split_first.to_dict()
        report["migration_sweep"] = migration_sweep.to_dict()
        ok = (
            ok
            and split_first.ok
            and split_second.ok
            and same
            and migration_sweep.ok
        )
        deterministic = deterministic and same

    report["deterministic"] = deterministic
    report["ok"] = ok
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"convergence report written to {args.out}")
    print("shard chaos: " + ("CONVERGED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
