"""Summarize, compare and record sets of benchmark runs.

Usage, from the root of a checkout:

    python3 perfbench/summarize.py RESULTS_DIR
    python3 perfbench/summarize.py RESULTS_DIR --against OTHER_RESULTS_DIR
    python3 perfbench/summarize.py RESULTS_DIR --write-baseline PATH

RESULTS_DIR holds the JSON records ``run.py`` writes to
``.perfbench/results/`` (copy them away between sets).  For every workload
and end-to-end metric it prints the median, the quartiles and the spread
(quartile distance over median) against the bound in ``BENCHMARK.json``.
``--against`` compares another set's medians with this one's and lists the
output files whose bytes changed between the two sets; changed bytes are
information, not a failure.  ``--write-baseline`` stores the summary and the
output digests as a reference for later sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: Path) -> dict:
    """Records grouped as {(workload, trace): [record, ...]}, full size only."""
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if path.stem.endswith("-full"):
            groups[(record["metadata"]["workload"], record["trace"])].append(record)
    return groups


def stats(values: list) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def summary(groups: dict) -> dict:
    """{workload: {"end_to_end"|"per_layer": {metric: stats}, "failed": n}}."""
    out = defaultdict(dict)
    for (workload, trace), records in sorted(groups.items()):
        section = "per_layer" if trace else "end_to_end"
        names = records[0]["metrics"]
        out[workload][section] = {
            name: {**stats([r["metrics"][name]["value"] for r in records]),
                   "unit": names[name]["unit"]} for name in names}
        out[workload][f"{section}_failed"] = sum(r["failed"] for r in records)
    return dict(out)


def digests(groups: dict) -> dict:
    """{workload: {command line: {output role: sha256}}}."""
    out = defaultdict(dict)
    for (workload, _), records in groups.items():
        for r in records:
            out[workload][r["command_line"]] = r["digests"]
    return dict(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", type=Path)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--write-baseline", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    groups = load(args.results)
    base = summary(groups)
    ok = True
    for workload, sections in base.items():
        for name, s in sections.get("end_to_end", {}).items():
            bound = bounds[name]["bound"]
            steady = name == "setup_s" or s["spread"] <= bound
            ok &= steady
            print(f"{workload:15s} {name:12s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n={s['n']:<3d} "
                  f"spread {s['spread']:.4f} (bound {bound}, a third {bound / 3:.4f})"
                  f"{'' if steady else '  TOO WIDE'}")
        failed = sections.get("end_to_end_failed", 0) + sections.get("per_layer_failed", 0)
        if failed:
            ok = False
            print(f"{workload:15s} {failed} failed commands")

    if args.against:
        other_groups = load(args.against)
        other = summary(other_groups)
        for workload, sections in base.items():
            for name, s in sections.get("end_to_end", {}).items():
                o = other.get(workload, {}).get("end_to_end", {}).get(name)
                if o is None:
                    continue
                metric = bounds[name]
                change = (o["median"] - s["median"]) / s["median"]
                worse = -change if metric["better"] == "higher" else change
                regressed = worse > metric["bound"]
                ok &= not regressed
                print(f"{workload:15s} {name:12s} {s['median']:.6g} -> {o['median']:.6g} "
                      f"({change:+.2%}){'  WORSE THAN BOUND' if regressed else ''}")
        mine, theirs = digests(groups), digests(other_groups)
        for workload in sorted(set(mine) | set(theirs)):
            for line in sorted(set(mine.get(workload, {})) & set(theirs.get(workload, {}))):
                a, b = mine[workload][line], theirs[workload][line]
                changed = sorted(r for r in set(a) | set(b) if a.get(r) != b.get(r))
                print(f"{workload:15s} {line}: "
                      f"{'bytes changed: ' + ', '.join(changed) if changed else 'identical'}")

    if args.write_baseline:
        any_record = next(iter(groups.values()))[0]
        meta = {k: any_record["metadata"][k]
                for k in ("git_sha", "source_sha256", "python", "numpy", "numpy_simd",
                          "backend", "nproc", "machine")}
        args.write_baseline.parent.mkdir(parents=True, exist_ok=True)
        args.write_baseline.write_text(json.dumps(
            {"metadata": meta, "summary": base, "digests": digests(groups)},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
