"""Benchmark for bidibeam: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-synth --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the run repeats passes of the workload, each with fresh
inputs made from the seed, for ``--seconds`` (and at least three passes).
It reports each time as a mean over every sample of the run, and decode
latency as percentiles over every decode.  With
``--trace 1`` it alternates an untraced and a traced pass over the inputs
of pass 0, reports per-layer self times, counts and ratios from the traced
passes, and the traced-over-untraced wall-time ratio.

Every decode is checked; see ``workloads.Ops.decode``.  At the default seed
the digest of pass 0's decoded outputs must equal the one recorded in
``perfbench/digests.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
MIN_PASSES = 3

# Per-layer metrics that are times; every other per-layer metric is a count
# or a ratio of counts and must repeat exactly between traced passes.
_TIME_SUFFIXES = (".self_s", ".us_per_call", ".self_ns_per_expansion")


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": _loadavg(),
    }


def _run_pass(workload, seed: int, workdir: Path, tracer=None):
    workdir.mkdir(parents=True)
    try:
        given = workload.prepare(workdir, seed)
        start = time.perf_counter()
        if tracer is None:
            result = workload.run_pass(given, workdir)
        else:
            with tracer:
                result = workload.run_pass(given, workdir)
        result.wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def timed_run(workload, seed: int, seconds: float, workdir: Path, report: dict):
    """Passes with fresh inputs until ``seconds`` have passed; end-to-end metrics."""
    from inputs import pass_seed
    from bidibeam.evaluation import corpus_bleu4

    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        passes.append(_run_pass(workload, pass_seed(seed, index), workdir / f"pass{index}"))
        elapsed = time.perf_counter() - start
        # Stop before a pass that would end after ``seconds``.
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break

    setups = [s for p in passes for s in p.setup_s]
    cells: dict[str, list[float]] = {}
    for p in passes:
        for cell, times in p.decode_s.items():
            cells.setdefault(cell, []).extend(1000.0 * t for t in times)
    # Percentiles are taken per cell (algorithm and beam size) and combined
    # by geometric mean: pooled over the sweep's cells, a percentile would
    # fall between the cells' clusters and jump between them.
    deciles = [statistics.quantiles(ms, n=10) for ms in cells.values() if len(ms) > 1]
    if not deciles:  # every decode failed; the failures are reported
        deciles = [[0.0] * 9]
    # A shared host runs identical work at speeds up to 1.7x apart, switching
    # within seconds to minutes.  A median or a minimum of such times jumps
    # between the speeds as their mix changes; a mean moves with the mix.
    metrics = {
        "setup_s": statistics.fmean(setups),
        "sweep_s": statistics.fmean(p.stage_s for p in passes),
        "analyze_s": statistics.fmean(s for p in passes for s in p.analyze_s),
        "decode_sents_per_s": 1000.0 * sum(map(len, cells.values()))
        / (sum(map(sum, cells.values())) or math.inf),
        "decode_ms_p50": statistics.geometric_mean(d[4] for d in deciles),
        "decode_ms_p90": statistics.geometric_mean(d[8] for d in deciles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["samples"] = {"passes": len(passes), "setup_s": len(setups),
                         "decode_ms_per_cell": {c: len(ms) for c, ms in cells.items()}}
    report["passes"] = [
        {"setup_s": p.setup_s, "sweep_s": p.stage_s, "analyze_s": p.analyze_s,
         "decodes": sum(map(len, p.decode_s.values())), "wall_s": p.wall_s}
        for p in passes
    ]
    # BLEU is a property of the seed's inputs, not of the code's speed, and
    # varies between seeds by more than any bound; the digest pins outputs.
    scored = [pair for p in passes[:MIN_PASSES] for pair in p.bleu_pairs]
    report["bleu4"] = {"value": corpus_bleu4(scored), "sentences": len(scored)}
    report["distinct_test_source_share"] = statistics.median(
        p.distinct_source_share for p in passes)
    few = {c: len(ms) for c, ms in cells.items() if len(ms) < 100}
    if few:
        report["warning"] = f"decode_ms_p90 has fewer than 100 samples in cells {few}"
    return metrics, passes, passes[0].digest, []


def traced_run(workload, seed: int, seconds: float, workdir: Path, report: dict):
    """Untraced and traced passes over pass 0's inputs; per-layer metrics."""
    from inputs import pass_seed
    from tracer import Tracer, layer_metrics

    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        index = len(pairs)
        plain = _run_pass(workload, pass_seed(seed, 0), workdir / f"plain{index}")
        tracer = Tracer()
        traced = _run_pass(workload, pass_seed(seed, 0), workdir / f"traced{index}", tracer)
        layers = layer_metrics(tracer)
        layers["instrumentation.bounds_failures"] = traced.ops.bounds_failures
        layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        if not pairs:
            spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz"
            tracer.write_spans(spans)
            report["spans_file"] = str(spans.relative_to(ROOT))
        pairs.append((plain, traced, layers))

    problems = []
    metrics = {}
    for name in pairs[0][2]:
        values = [layers[name] for _, _, layers in pairs]
        if name.endswith(_TIME_SUFFIXES) or name == "trace.overhead_ratio":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"per-layer count {name} differs between traced passes: {values}")
    report["samples"] = {"traced_passes": len(pairs)}
    report["trace_wall_s"] = [[p.wall_s, t.wall_s] for p, t, _ in pairs]
    # Where the traced pass spends its time: each layer's self time over the
    # pass's wall time.  The rest is untraced code, such as the output checks.
    traced_wall = statistics.median(t.wall_s for _, t, _ in pairs)
    report["self_time_share"] = {
        name: round(metrics[name] / traced_wall, 4)
        for name in metrics if name.endswith(".self_s") and metrics[name] > 0}
    passes = [p for plain, traced, _ in pairs for p in (plain, traced)]
    digests = [p.digest for p in passes]
    if len(set(digests)) != 1:
        problems.append("traced and untraced passes decoded different outputs")
    return metrics, passes, digests[0], problems


def run_all(args) -> int:
    """Each declared workload in a fresh process of its own, one after another."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code = 0
    for entry in declared["workloads"]:
        command = [sys.executable, __file__, "--workload", entry["name"], "--seed",
                   str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        print(f"== {entry['name']}", flush=True)
        code = max(code, subprocess.run(command, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "bidibeam" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of a bidibeam checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import bidibeam
    from workloads import WORKLOADS

    if Path(bidibeam.__file__).resolve() != package.resolve():
        print(f"error: imported bidibeam from {bidibeam.__file__}, not {package}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Metric names and units are declared once, in BENCHMARK.json.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds

    report = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "machine": _machine()}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        measure = traced_run if args.trace else timed_run
        metrics, passes, digest, problems = measure(workload, args.seed, seconds, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["machine"]["loadavg_end"] = _loadavg()

    attempted = sum(p.ops.attempted for p in passes)
    failed = sum(p.ops.failed for p in passes)
    problems += [problem for p in passes for problem in p.ops.problems][:20]
    report["digest"] = digest
    if args.seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        if recorded.get(args.workload) != digest:
            problems.append(f"digest {digest} differs from the recorded "
                            f"{recorded.get(args.workload)}; every decode counts as failed")
            failed = max(failed, sum(p.ops.decodes for p in passes))

    report["ops_attempted"] = attempted
    report["ops_failed"] = failed
    report["failed_ratio"] = f"{failed}/{attempted}"
    report["problems"] = problems
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json declares metrics the run did not measure: {missing}",
              file=sys.stderr)
        return 2
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for key in ("machine", "samples", "distinct_test_source_share", "bleu4", "digest",
                "ops_attempted", "ops_failed", "failed_ratio", "warning", "spans_file",
                "self_time_share", "problems"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
