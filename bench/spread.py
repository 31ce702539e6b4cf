"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload treebank --seeds 1-10 [--write]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median over the runs and the distance between the
first and third quartile as a share of that median (``statistics.quantiles``
with n=4), next to the metric's bound in ``BENCHMARK.json``.  ``--write``
stores the spreads in ``bench/spread.json``, which every result then quotes
as the measured run-to-run spread; ``--record`` records each seed's digests
in ``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPREAD = os.path.join(HERE, "spread.json")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="pass --record to every run")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"]
            + (["--record"] if args.record else []),
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: failed {result['failed']}/"
              f"{result['attempted']}", flush=True)
    spreads = {}
    print(f"{'metric':20s} {'median':>10s} {'spread':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spreads[name] = (q3 - q1) / median
        flag = "" if spreads[name] < metric["bound"] / 3 else "  wide"
        print(f"{name:20s} {median:10.4f} {spreads[name]:7.3f} "
              f"{metric['bound']:6.2f}{flag}")
    print(f"failed commands over all runs: {failed}")
    if args.write:
        try:
            with open(SPREAD, encoding="utf-8") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            record = {}
        record[args.workload] = {
            "seeds": args.seeds, "runs": len(seed_list(args.seeds)),
            "run_seconds": spec["run_seconds"],
            "iqr_over_median": {k: round(v, 4) for k, v in spreads.items()},
            "medians": {k: round(statistics.median(v), 6)
                        for k, v in values.items()}}
        with open(SPREAD, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
