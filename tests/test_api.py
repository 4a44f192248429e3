"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import linquant


def test_exports_resolve_once():
    names = linquant.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(linquant, name)]
    assert missing == []


# eliminate on five criterion-4 and five nested generator seeds (in 60073
# and 60079 ``conjoin`` drops tie atoms parallel to a cell-state atom at
# least as tight), and both interpolants of five entailing pairs, whose
# verdicts come from the memo
HASH_SEED_SNIPPET = """
from conftest import entailing_pair
from linquant import GenParams, eliminate, random_quantity
from linquant import strongest_interpolant, weakest_interpolant
from linquant.printer import print_quantity

single = GenParams(vars=3, summands=3, atoms_per_guard=3, coeff_bound=3,
                   infinity_prob=0.1, quantifiers=1)
nested = GenParams(vars=3, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=2)
for params, seeds in ((single, range(40_000, 40_005)),
                      (nested, (60_000, 60_001, 60_002, 60_073, 60_079))):
    for seed in seeds:
        print(print_quantity(eliminate(random_quantity(params, seed))))
for seed in range(5):
    f, g = entailing_pair(seed)
    print(print_quantity(strongest_interpolant(f, g)))
    print(print_quantity(weakest_interpolant(f, g)))
"""


def test_output_ignores_hash_seed():
    tests = Path(__file__).resolve().parent
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(tests.parent / "src"))
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SNIPPET],
            cwd=tests,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 20
    assert outputs[0] == outputs[1]
