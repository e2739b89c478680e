"""Check that the benchmark's end-to-end metrics repeat within their bounds.

Runs ``perfbench/run.py`` with tracing off on every workload of
BENCHMARK.json, one run at a time: 10 runs on seeds 1-10, then a second set
of 10 on seeds 11-20, each for ``run_seconds``.  For each metric and set it
reports the spread of the values (the distance between the first and third
quartile over the median) next to the metric's bound, and how far the
second set's median moved from the first in the metric's worse direction.

    python3 perfbench/steadiness.py

A spread of a third of the bound or more, or a median that moved by more
than the bound, is flagged.  The table goes to standard output and to
perfbench/STEADINESS.md.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "perfbench" / "STEADINESS.md"
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(command)} reported incorrect output:\n{done.stdout[-3000:]}")
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    lines = [
        "# Steadiness of the end-to-end metrics",
        "",
        "Made with `python3 perfbench/steadiness.py`; see the README for how to read it.",
        f"Runs per set: {RUNS}, sets: {SETS}, --seconds {seconds}, seeds from {FIRST_SEED}.",
        "",
        "| workload | metric | bound | set | median | spread | spread/bound | "
        "2nd median worse by |",
        "|---|---|---|---|---|---|---|---|",
    ]
    flagged = []
    for workload in (w["name"] for w in declared["workloads"]):
        medians: dict[str, list[float]] = {}
        for index in range(SETS):
            first = FIRST_SEED + index * RUNS
            results = [run_once(workload, seed, seconds) for seed in range(first, first + RUNS)]
            for metric in declared["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                medians.setdefault(name, []).append(median)
                share = spread(values)
                moved = ""
                if index == 1:
                    worse = worsening(medians[name][0], median, metric["better"])
                    moved = f"{worse:+.4f}"
                    if worse > bound:
                        flagged.append(f"{workload} {name}: second median worse by {worse:.4f}")
                if share >= bound / 3:
                    flagged.append(f"{workload} {name} set {index + 1}: spread {share:.4f} >= bound/3")
                lines.append(
                    f"| {workload} | {name} | {bound} | {index + 1} | {median:.6g} | "
                    f"{share:.4f} | {share / bound:.2f} | {moved} |")
            print("\n".join(lines[-len(declared["end_to_end"]):]), flush=True)
    lines += ["", f"Flagged ({len(flagged)}): " + ("; ".join(flagged) if flagged else "none")]
    table = "\n".join(lines) + "\n"
    print(table)
    REPORT.write_text(table, encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
