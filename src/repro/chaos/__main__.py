"""Run the chaos scenarios and emit one JSON report.

Usage::

    python -m repro.chaos [SCENARIO ...] [--dir DIR] [--out FILE] [--no-fsync]

Runs every named scenario (default: all of them) twice in fresh
directories under ``--dir`` (default: a temporary directory). Exits 0 when
every run passes and each scenario's two runs serialize identically, 1
otherwise, and 2 for an unknown scenario or a non-empty ``--dir`` — a
reused directory would replay recovered state instead of running the
scenario. ``--out`` writes the report, one section per scenario; two
invocations in fresh directories write byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.chaos import SCENARIOS
from repro.chaos.harness import describe_section, run_twice

REPORT_FORMAT = "repro-chaos/1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded chaos scenarios, each run twice.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help=f"scenario(s) to run (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--dir", default=None, help="scratch directory (default: a temp dir)"
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--no-fsync", action="store_true", help="skip fsync calls (faster)"
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.scenarios if name not in SCENARIOS]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(SCENARIOS)}"
        )
    if args.dir and Path(args.dir).exists() and any(Path(args.dir).iterdir()):
        parser.error(f"scratch directory {args.dir} is not empty")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        base = Path(args.dir or tmp)
        scenarios = {}
        for name in dict.fromkeys(args.scenarios or SCENARIOS):
            print(f"{name}: two runs under {base / name}")
            sections, scenarios[name] = run_twice(
                SCENARIOS[name], base / name, not args.no_fsync
            )
            for section_name, section in sections.items():
                print(f"{name}/{section_name}:")
                print(describe_section(section))
            if not scenarios[name]["deterministic"]:
                print(f"NON-DETERMINISTIC: two runs of {name} diverged")

    ok = all(scenario["ok"] for scenario in scenarios.values())
    if args.out:
        report = {"format": REPORT_FORMAT, "scenarios": scenarios, "ok": ok}
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    print("chaos: " + ("CONVERGED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
