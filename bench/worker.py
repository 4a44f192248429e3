"""One fresh-interpreter benchmark process: set up, then optionally run a timed pass.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src``.  With ``--role setup`` it imports the package, builds the input
texts and prints their digest and base seed, nothing more.  With ``--role pass`` it also runs every op of
the workload once, in corpus order, and prints one JSON report on
stdout.  Each op runs under a wall-clock cap; an op that hits it is recorded
as failed and the pass goes on.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter


# Wall-clock cap per op; the slowest op of any workload (nested, generator
# seed 60007) takes about 5 s on a 2-core machine.
OP_CAP_S = 15.0


class OpCapExceeded(BaseException):
    """Raised from the alarm handler; a BaseException so no engine handler swallows it."""


def _on_alarm(signum, frame):
    raise OpCapExceeded


def _check(workload, texts, results, seed: str) -> bool:
    """The workload's output check; a check that raises counts as a mismatch."""
    try:
        return workload.check(texts, results, random.Random(seed))
    except Exception:
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("setup", "pass"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base-seed", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)

    import linquant
    import linquant.cli  # noqa: F401  (CLI startup is part of set-up)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(linquant.__file__).resolve().parents:
        print(f"linquant imported from {linquant.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, digest, inputs_digest

    workload = WORKLOADS[args.workload]
    base_seed = workload.base_seed if args.base_seed is None else args.base_seed
    corpus = workload.corpus(base_seed)
    if args.role == "setup":
        print(json.dumps({"inputs_digest": inputs_digest(corpus), "base_seed": base_seed}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    latency = [0.0] * len(corpus)
    status = ["ok"] * len(corpus)
    outputs: list[tuple[str, ...]] = [()] * len(corpus)
    results: list[tuple] = [()] * len(corpus)
    width = depth = 0
    signal.signal(signal.SIGALRM, _on_alarm)
    for i in range(len(corpus)):
        # Untimed: collect what earlier ops left and freeze the survivors, so
        # the collector's work inside this op covers only this op's objects,
        # as in a CLI process, not the caches every earlier op filled.
        gc.collect()
        gc.freeze()
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            texts, quantities = workload.op(corpus[i])
            signal.setitimer(signal.ITIMER_REAL, 0)
        except OpCapExceeded:
            status[i] = "cap"
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            signal.setitimer(signal.ITIMER_REAL, 0)
            status[i] = f"{type(exc).__name__}: {exc}"[:200]
        latency[i] = perf_counter() - start
        if status[i] == "ok":
            outputs[i], results[i] = texts, quantities
            width += sum(linquant.width(q) for q in quantities)
            depth += sum(linquant.depth(q) for q in quantities)

    report = {
        "latency_s": latency,
        "status": status,
        "digests": [digest(texts) for texts in outputs],
        "out_width": width,
        "out_depth": depth,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["absent"] = tracer.absent
        tracer.uninstall()
    if args.check:
        start = perf_counter()
        report["check"] = [
            status[i] == "ok" and _check(workload, corpus[i], results[i], f"{args.seed}:{i}")
            for i in range(len(corpus))
        ]
        report["check_s"] = perf_counter() - start
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
