"""Seeded end-to-end and per-layer benchmark for linquant.

Run from the root of a checkout:

    python3 bench/run.py --workload single --seed 1 --seconds 35 --trace 0

Load is a closed loop: one worker process, one thread, ops back to back.
Every pass runs the whole corpus once in a fresh interpreter (no ``-O``), so
the engine's process-wide caches start cold each pass, as for a CLI user,
and the ``__debug__`` checks stay on.  A run makes at least two passes, each
under another ``PYTHONHASHSEED``; their printed outputs must be byte
identical.  ``--seed`` draws the hash seeds and the check's sample points;
the corpus and the order of its ops are fixed per workload (``--base-seed``
picks another corpus).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("single", "nested", "interp")
SETUP_SAMPLES_PER_PASS = 2
MAX_PASSES = 10
RUN_DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p`` percent at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload: str, args):
        self.workload = workload
        self.args = args
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def worker(self, role: str, *extra: str, hash_seed: int | None = None) -> tuple[dict, float]:
        """Run one worker to completion; returns its report and wall time."""
        cmd = [sys.executable, str(BENCH / "worker.py"), "--role", role,
               "--workload", self.workload, "--seed", str(self.args.seed), *extra]
        if self.args.base_seed is not None:
            cmd += ["--base-seed", str(self.args.base_seed)]
        env = dict(self.env)
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = str(hash_seed)
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{role} worker passed the {RUN_DEADLINE_S:.0f} s run deadline")
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RunFailed(f"{role} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter importing the package and building
        the input texts."""
        return self.worker("setup")[1]

    def passes(self) -> tuple[list[dict], list[float]]:
        """Timed passes and set-up samples.

        A run makes as many passes as fit in ``--seconds``, at least two,
        each in a fresh worker under its own hash seed; the last pass also
        checks the outputs.  A traced run makes one untraced and one traced
        pass.  Two set-up samples are taken before each pass and after the
        last one, so they spread over the run like the passes do.
        """
        rng = random.Random(self.args.seed)
        reports: list[dict] = []
        setup: list[float] = []
        wanted = 2
        while len(reports) < wanted:
            setup += [self.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
            traced = self.args.trace and len(reports) == 1
            extra = ["--trace", "1" if traced else "0"]
            if len(reports) == wanted - 1:
                extra.append("--check")
            report, _ = self.worker("pass", *extra, hash_seed=rng.randrange(1, 2**32))
            report["traced"] = bool(traced)
            reports.append(report)
            if len(reports) == 1 and not self.args.trace:
                pass_s = max(sum(report["latency_s"]), 1e-3)
                wanted = min(MAX_PASSES, max(2, int(self.args.seconds // pass_s)))
        setup += [self.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        return reports, setup


def summarize(workload: str, args, setup: list[float], inputs: dict, reports: list[dict]):
    """Reduce the pass reports to the printed report and the result object."""
    n = len(reports[0]["latency_s"])
    check = reports[-1]["check"]
    failed = sum(
        1 for r in reports for i in range(n) if r["status"][i] != "ok" or not check[i]
    )
    attempted = n * len(reports)
    identical = all(r["digests"] == reports[0]["digests"] for r in reports)
    plain = [r for r in reports if not r["traced"]]
    pass_s = [sum(r["latency_s"]) for r in plain]
    per_op_ms = [1000 * statistics.median(r["latency_s"][i] for r in plain) for i in range(n)]
    completed = statistics.median(sum(s == "ok" for s in r["status"]) for r in plain)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / statistics.median(pass_s), "1/s"),
        "op_p50_ms": (statistics.median(per_op_ms), "ms"),
        "op_p90_ms": (percentile(per_op_ms, 90), "ms"),
        "out_width": (reports[0]["out_width"], "count"),
        "out_depth": (reports[0]["out_depth"], "count"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    lines = [
        f"workload {workload}: {n} ops x {len(reports)} passes, seed {args.seed}, "
        f"base seed {inputs['base_seed']}, inputs digest {inputs['inputs_digest'][:16]}",
        f"environment: python {sys.version.split()[0]}, nproc {os.cpu_count()}, commit {_commit()}",
        f"pass seconds: {', '.join(f'{s:.3f}' for s in pass_s)}; "
        f"output check {reports[-1]['check_s']:.3f} s",
        f"ops_failed {failed}/{attempted} = {failed / attempted:.4f}; "
        f"outputs identical across hash seeds: {identical}; "
        f"latency samples {n}, {n - math.ceil(0.9 * n)} beyond p90",
    ]
    for name, (value, unit) in end_to_end.items():
        lines.append(f"  {name:<32} {value:>14.6g} {unit}")
    for i in range(n):
        if reports[-1]["status"][i] != "ok" or not check[i]:
            lines.append(f"  failed op {i}: {reports[-1]['status'][i]}, check {check[i]}")
    if args.trace:
        (traced,) = [r for r in reports if r["traced"]]
        layers = dict(traced["layers"])
        overhead = sum(traced["latency_s"]) / statistics.median(pass_s) - 1
        layers["trace.overhead_pct"] = 100 * overhead
        lines.append(f"absent trace targets: {sorted(set(traced['absent'])) or 'none'}")
        for name, value in layers.items():
            lines.append(f"  {name:<32} {value:>14.6g}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "ratio" if name.endswith("_ratio") else "count"


def _commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def run(workload: str, args) -> int:
    runner = Runner(workload, args)
    try:
        inputs = runner.worker("setup")[0]  # unmeasured: also compiles the bytecode
        reports, setup = runner.passes()
    except RunFailed as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        return 1
    lines, result = summarize(workload, args, setup, inputs, reports)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base-seed", type=int, default=None,
                    help="first generator seed of the corpus (default: the workload's own)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "linquant" / "__init__.py").is_file():
        print(f"no linquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = run(workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
