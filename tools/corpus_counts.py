"""Engine counts after one cold pass over each benchmark corpus.

Run from the root of a checkout:

    python3 tools/corpus_counts.py [single nested interp]

Each corpus of ``bench/workloads.py`` runs once, op by op in corpus order, in
a fresh interpreter under ``PYTHONHASHSEED=0``, so every process-wide cache
starts cold.  One line per corpus reports:

* ``sat_misses`` / ``sat_calls``: misses and calls of the Fourier-Motzkin
  cache ``linquant.logic._sat_cached``, one miss per distinct system decided;
* ``dnf_misses``: misses of the DNF cache ``linquant.logic._to_dnf_cached``,
  one per distinct guard split into disjuncts;
* ``interned``: entries of the interning table ``linquant.logic._ATOMS``,
  one atom per row (``-`` where the engine has none);
* ``width`` / ``depth``: the summed output width and depth, as the
  benchmark's ``out_width`` / ``out_depth``;
* ``digest``: the first 16 hex digits of the SHA-256 of ``repr`` of the
  per-op list of printed outputs;
* ``cpu_s`` and ``peak_rss_mb`` of the pass, for orientation only.

The script only reads ``bench/`` and checks nothing: it prints the counts a
change moves, for comparing a change with its parent.  An op that raises
stops it with an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("sat_misses", "sat_calls", "dnf_misses", "interned", "width", "depth", "digest", "cpu_s", "peak_rss_mb")


def one_pass(name: str) -> dict:
    """Run the named workload's corpus once in this process and count."""
    import resource
    import time

    from linquant import depth, logic, width
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    outputs, total_width, total_depth = [], 0, 0
    start = time.process_time()
    for texts in workload.corpus():
        printed, quantities = workload.op(texts)
        outputs.append(printed)
        total_width += sum(width(q) for q in quantities)
        total_depth += sum(depth(q) for q in quantities)
    cpu = time.process_time() - start
    sat = logic._sat_cached.cache_info()
    table = getattr(logic, "_ATOMS", None)
    return {
        "sat_misses": sat.misses,
        "sat_calls": sat.hits + sat.misses,
        "dnf_misses": logic._to_dnf_cached.cache_info().misses,
        "interned": "-" if table is None else len(table),
        "width": total_width,
        "depth": total_depth,
        "digest": hashlib.sha256(repr(outputs).encode()).hexdigest()[:16],
        "cpu_s": round(cpu, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(one_pass(argv[1])))
        return 0
    names = argv or ["single", "nested", "interp"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    print("workload " + " ".join(f"{c:>16}" for c in COLUMNS))
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--one", name],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        counts = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<8} " + " ".join(f"{counts[c]:>16}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
