"""Benchmark of ewb: one command, four workloads, every output checked.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {word-eq,diagram,search,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The workload runs in a child process (``worker.py``) under an address-space
limit and a per-op deadline.  Set-up (import, input generation, warm-up) is
measured in that child and in extra set-up-only children, and reported as
the median.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the seed, sample counts, tail percentiles and input sizes; the same
record is written under ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("word-eq", "diagram", "search", "cli")
SETUP_REPEATS = 4  # extra set-up-only children; with the measured run, five samples
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from harness import END_TO_END, PER_LAYER  # noqa: E402


class WorkerError(Exception):
    pass


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ewb" / "__init__.py").is_file():
        print(f"error: no ewb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    try:
        setups = [_spawn(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(0 if args.smoke else SETUP_REPEATS)]
        result = _spawn(common + ["--trace", str(args.trace)], deadline)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info = dict(result["info"], setup_s_samples=setups)
    record = ROOT / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"info": info, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
