"""Run one workload repeatedly and report each metric's run-to-run spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload serve-warm --runs 10
    python3 perfbench/spread.py --workload sweep-cold --runs 5 --same-seed
    python3 perfbench/spread.py --workload live-mutating --runs 10 --compare ../parent

Each run is one ``perfbench/run.py`` process with its own seed (or the same
seed with ``--same-seed``, to separate host noise from seed-driven spread).
With ``--compare DIR`` every run is paired with a run of the checkout at
``DIR``, alternating which side goes first.  For each metric and side the
tool prints the median, the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``) and the metric's bound from
``BENCHMARK.json``, flagging spreads above a third of the bound; with a
comparison side it also prints how far this side's median is from the
other's, as a share of the other's.  The wall-clock (``raw_``) figures from
each run's details are summarised the same way, next to the calibrated
metrics.  Per-run values are printed too, so seeds can be compared.  The raw results go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"{checkout}: run failed\n{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    result["wall_s"] = time.perf_counter() - started
    # The wall-clock figures behind the calibrated metrics, for comparison.
    for name, value in result["detail"].items():
        if name.startswith("raw_") and isinstance(value, (int, float)):
            result["metrics"][name] = {"value": value, "unit": "raw"}
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return middle, (quartiles[2] - quartiles[0]) / abs(middle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=None, help="defaults to BENCHMARK.json")
    parser.add_argument("--compare", type=Path, default=None, help="checkout to alternate with")
    args = parser.parse_args(argv)

    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in contract["end_to_end"]}
    bounds.update({f"raw_{name}": bound for name, bound in bounds.items()})
    sides = {"this": REPO_ROOT}
    if args.compare is not None:
        sides["other"] = args.compare.resolve()

    results: dict[str, list[dict]] = {side: [] for side in sides}
    for index in range(args.runs):
        seed = args.seed_base + (0 if args.same_seed else index)
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            results[side].append(result)
            values = " ".join(
                f"{name}={entry['value']:.4g}" for name, entry in sorted(result["metrics"].items())
            )
            probe = "/".join(f"{value:.1f}" for value in result["detail"].get("host_probe_ms", []))
            print(f"[{side} seed={seed}] wall={result['wall_s']:.1f}s probe(min/median/max)={probe}ms correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s per side")
    print(f"{'metric':40s} {'side':6s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}  note")
    summary = {
        (side, name): spread([result["metrics"][name]["value"] for result in side_results])
        for side, side_results in results.items()
        for name in side_results[0]["metrics"]
    }
    for (side, name), (middle, share) in sorted(summary.items(), key=lambda item: item[0][::-1]):
        bound = bounds.get(name)
        note = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            note = "spread above a third of the bound"
        if side == "this" and ("other", name) in summary:
            note += f" this vs other {middle / summary[('other', name)][0] - 1:+.3f}"
        print(f"{name:40s} {side:6s} {middle:12.5g} {share:8.3f} {bound if bound is not None else '-':>6}  {note}")
    out = BENCH_DIR / "results" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))  # repro-lint: disable=IOH003 -- throwaway report, rewritten whole on every run
    print(f"\nraw results: {out.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
