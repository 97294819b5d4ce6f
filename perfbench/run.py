r"""Planner benchmark: one command, three workloads, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_search --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it, prefixed ``record:``, is the full record: git revision, CPU count,
interpreter versions, seed, per-phase failures and each metric's
median, quartiles and sample count.  ``--out FILE`` appends that
record to a JSON-lines file, and::

    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl

prints one verdict per (metric, workload) from two such files, and
``python3 perfbench/run.py --spread RECORDS.jsonl`` prints each
metric's median and spread (interquartile distance over median) over
the runs of a file, for timings both at the reference speed (gated)
and as measured.
``perfbench/NOTES.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import SCRATCH_DIR, SourceMissing, cpu_split, \
    require_source  # noqa: E402

WORKLOADS = ("cold_search", "serve_hot", "elastic_replan")


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args, root: Path, spec: dict) -> int:
    try:
        src = require_source(root)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cpus = cpu_split()
    if cpus is not None:
        # Before NumPy loads, so that its thread pools size to one CPU.
        os.sched_setaffinity(
            0, cpus[1] if args.workload == "serve_hot" else cpus[0])
    sys.path.insert(0, str(src))
    module = importlib.import_module(f"perfbench.{args.workload}")
    try:
        run = module.run(root, src, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(root / SCRATCH_DIR, ignore_errors=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    for metric in wanted:
        run.metrics[metric["name"]]["unit"] = metric["unit"]
    print_summary(run, wanted)
    record = run.record(root)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(run.result_line([m["name"] for m in wanted])))
    return 0


def print_summary(run, wanted) -> None:
    print(f"workload {run.workload}  seed {run.seed}  "
          f"{'traced' if run.trace else 'untraced'}")
    print(f"  {'metric':<34} {'value':>14} {'unit':<10} samples")
    for metric in wanted:
        entry = run.metrics[metric["name"]]
        print(f"  {metric['name']:<34} {entry['value']:>14.6g} "
              f"{metric['unit']:<10} {entry.get('samples', 1)}")
    for phase, counts in sorted(run.phases.items()):
        share = counts["failed"] / counts["attempted"]
        print(f"  phase {phase:<12} attempted {counts['attempted']:>7} "
              f"failed {counts['failed']:>4} ({share:.1%})")
    for line in run.failures:
        print(f"  FAILED {line}")
    for note in run.notes:
        print(f"  note: {note}")


# ------------------------------------------------------------------ compare


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better: str, bound: float) -> str:
    """Improved, unchanged, worse or unresolved, by the pair rule.

    A gain needs at least ten run pairs (run ``i`` of each side), the
    change winning nine tenths of them, and the medians differing by
    more than the base's interquartile distance.  Otherwise the change
    must not be worse than the base median by more than ``bound``;
    when the base's own spread exceeds the bound the pairing is
    unresolved, unless every change run beats every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = _quartiles(base)
    _, change_median, _ = _quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    gain = sign * (base_median - change_median)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    beats_all = all(sign * (c - b) < 0 for b in base for c in change)
    if (q3 - q1) / abs(base_median) > bound and not beats_all:
        return "unresolved"
    if -gain / abs(base_median) > bound:
        return "worse"
    return "unchanged"


def load_records(path: str) -> "dict[str, list[dict]]":
    """Untraced records of a JSON-lines file, by workload."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    rows.setdefault(record["workload"], []).append(record)
    return rows


def spread(path: str, spec: dict) -> int:
    """Median and spread of each (metric, workload) over a record file.

    Timings show them at the reference speed (gated) and as measured.
    """
    print(f"{'workload':<16} {'metric':<26} {'runs':>4} {'median':>11} "
          f"{'spread':>7} {'measured':>11} {'spread':>7} bound")
    for workload, records in sorted(load_records(path).items()):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            for key in ("value", "measured"):
                entries = [r["metrics"][name] for r in records]
                if key not in entries[0]:
                    cells.append(f"{'-':>11} {'-':>7}")
                    continue
                q1, median, q3 = _quartiles([e[key] for e in entries])
                share = (q3 - q1) / abs(median)
                cells.append(f"{median:>11.5g} {share:>7.3f}")
            print(f"{workload:<16} {name:<26} {len(records):>4} "
                  f"{' '.join(cells)} {metric['bound']}")
    return 0


def compare(base_path: str, change_path: str, spec: dict) -> int:
    base, change = load_records(base_path), load_records(change_path)
    print(f"{'workload':<16} {'metric':<26} {'base':>11} {'change':>11} "
          f"{'delta':>8} verdict")
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            mb, mc = _quartiles(b)[1], _quartiles(c)[1]
            delta = (mc - mb) / abs(mb) if mb else 0.0
            print(f"{workload:<16} {name:<26} {mb:>11.5g} {mc:>11.5g} "
                  f"{delta:>+8.1%} "
                  f"{verdict(b, c, metric['better'], metric['bound'])}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two record files instead of running")
    parser.add_argument("--spread", metavar="RECORDS",
                        help="print each metric's spread over a record file")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = load_spec(root)
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, spec)
    if args.spread:
        return spread(args.spread, spec)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_workload(args, root, spec)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
