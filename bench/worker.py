"""One workload in its own process: set up, run the closed loop, report.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
process limits its own address space first, so a blow-up in the library
fails an op (MemoryError) instead of exhausting the machine, and each op
runs under a per-op deadline.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEMORY_LIMIT = 1 << 30
# Rounds of inputs generated at set-up; a run cycles through them if it
# outlasts the pool.
POOL = {"word-eq": 24, "diagram": 8, "search": 24, "cli": 12}


def _size_stats(values: list) -> dict:
    ordered = sorted(values)
    return {"n": len(ordered), "min": ordered[0], "median": ordered[len(ordered) // 2], "max": ordered[-1]}


def _import_ms(root: Path, env: dict, repeats: int = 7) -> float:
    """A fresh ``import ewb.cli`` minus a bare interpreter start.  Minima,
    since other load on the machine only ever adds to a start-up time."""
    times = {"pass": [], "import ewb.cli": []}
    for _ in range(repeats):
        for code in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=60)
            times[code].append(time.perf_counter() - t0)
    return (min(times["import ewb.cli"]) - min(times["pass"])) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ewb

    if Path(ewb.__file__).resolve().parent != (ROOT / "src" / "ewb").resolve():
        print(f"error: imported ewb from {ewb.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import harness
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = 1 if args.smoke else POOL[args.workload]
        if args.workload == "cli":
            wl = workloads.build_cli(args.seed, args.smoke, pool, ROOT, workdir, in_process=bool(args.trace))
        else:
            build = {"word-eq": workloads.build_word_eq, "diagram": workloads.build_diagram,
                     "search": workloads.build_search}[args.workload]
            wl = build(args.seed, args.smoke, pool)
        warm = harness.Recorder(wl.deadline_s)
        for task in wl.warmup:
            try:
                task(warm)
            except harness.Abort:
                pass
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            tracer = harness.Tracer()
            modules = {layer: importlib.import_module(f"ewb.{layer}") for layer in harness.TRACED}
            harness.install_tracing(tracer, modules, ewb)
        rec = harness.Recorder(wl.deadline_s, tracer)
        elapsed, rounds = harness.run_rounds(wl.rounds, rec, args.seconds)

        report = harness.latency_summary(rec.samples[harness.REPORT])
        artifact = harness.latency_summary(rec.samples[harness.ARTIFACT])
        completed = report["count"] + artifact["count"]
        info = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "rounds": rounds, "pool_rounds": len(wl.rounds), "elapsed_s": elapsed,
            "report": report, "artifact": artifact,
            "decided": rec.decided, "report_attempted": rec.report_attempted,
            "failed_ratio": rec.failed / max(1, rec.attempted), "wrong_outputs": rec.wrong,
            "failures": rec.failures, "deadline_s": wl.deadline_s, "memory_limit_bytes": MEMORY_LIMIT,
            "ops": {name: len(ts) for name, ts in sorted(rec.times_by_name.items())},
            "sizes": {k: _size_stats(v) if isinstance(v, list) else v for k, v in wl.sizes.items()},
        }
        if tracer is None:
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {
                "report_p50_ms": report["p50_ms"],
                "report_tail_ms": report["tail_ms"],
                "artifact_p50_ms": artifact["p50_ms"],
                "artifact_tail_ms": artifact["tail_ms"],
                "ops_per_s": completed / elapsed,
                "ok_ratio": (rec.attempted - rec.failed) / max(1, rec.attempted),
                "decided_ratio": rec.decided / max(1, rec.report_attempted),
                "peak_rss_mb": rss_kb / 1024,
            }
        else:
            overhead = tracer.overhead_per_span()
            metrics = harness.layer_metrics(tracer, overhead)
            metrics["cli.import_ms"] = _import_ms(ROOT, workloads.cli_env(ROOT))
            for verb in harness.CLI_VERBS:
                walls = rec.times_by_name.get(f"cli.{verb}", [])
                metrics[f"cli.verb.{verb}.wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
            spans_path = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
            info["overhead_per_span_s"] = overhead
        print(json.dumps({"setup_s": setup_s, "attempted": rec.attempted, "failed": rec.failed,
                          "correct": rec.wrong == 0, "metrics": metrics, "info": info}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
