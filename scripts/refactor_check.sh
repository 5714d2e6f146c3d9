#!/bin/sh
# Refactor check: print seven digests that a change which should not alter
# results must leave unchanged (see "Refactor check" in README.md), and compare
# them with scripts/refactor_check.expected: on a mismatch the diff goes to
# stderr and the exit status is 1.
#
#   sh scripts/refactor_check.sh
#
# Runs both fixed-seed grids of the README in a temporary directory and
# prints, one per line: the digest of each grid's artifacts, of the printed
# path lists (with the output directory cut off), of `compare` on
# summary.csv and then summary.json, of `rank --reference table6` and of
# `list`. The artifacts print fitness with 7 significant digits, so the
# seventh line digests full-precision results: `repr(best_fitness)` and
# `evals` of three short fixed-seed runs of each algorithm on F1-F19.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cddohs() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m cddohs.cli "$@"; }
digest() { sha256sum | cut -d' ' -f1; }

cddohs run --algo all --func all --runs 4 --iters 30 --seed 2023 --out "$tmp/X" >"$tmp/paths"
cddohs run --algo all --func F6,F11,F16 --runs 10 --iters 30 --seed 2023 --out "$tmp/Y" >>"$tmp/paths"

{
echo "artifacts X  $(cd "$tmp/X" && sha256sum * | digest)"
echo "artifacts Y  $(cd "$tmp/Y" && sha256sum * | digest)"
echo "paths        $(sed "s|^$tmp/||" "$tmp/paths" | digest)"
echo "compare      $({ cddohs compare --summary "$tmp/X/summary.csv"
                       cddohs compare --summary "$tmp/X/summary.json"; } | digest)"
echo "rank         $(cddohs rank --reference table6 | digest)"
echo "list         $(cddohs list | digest)"
echo "runs         $(PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
from cddohs.benchmarks import FUNCTION_IDS, make_function
from cddohs.core import RunConfig
from cddohs.harness import ALGORITHMS
config = RunConfig(pop_size=20, max_iters=50, base_seed=2023)
for algo, run in ALGORITHMS.items():
    for func in FUNCTION_IDS:
        for r in range(3):
            result = run(make_function(func), config, r)
            print(algo, func, r, repr(result.best_fitness), result.evals)
' | digest)"
} >"$tmp/lines"

cat "$tmp/lines"
diff -u scripts/refactor_check.expected "$tmp/lines" >&2
