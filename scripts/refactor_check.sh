#!/bin/sh
# Refactor check: print fifteen digests that a change which should not alter
# results must leave unchanged (see "Refactor check" in README.md), and compare
# them with scripts/refactor_check.expected: on a mismatch the diff goes to
# stderr and the exit status is 1.
#
#   sh scripts/refactor_check.sh
#
# Runs the four fixed-seed grids of the README in a temporary directory and
# prints, one per line: the digest of each grid's artifacts (the third and
# fourth grids, one algorithm, write an empty p-value table; the fourth, 4,500
# rows a table, spans several of the writer's chunks), of the first two grids' printed
# path lists (with the output directory cut off), of `compare` on
# summary.csv and then summary.json, of `rank --reference table6`, of `rank
# --input` on the first grid's summary.csv and then summary.json (`rank run`),
# and of `list`. The artifacts print fitness with 7 significant digits, so the
# next two lines digest full-precision results: `repr(best_fitness)`, `evals`,
# `seed` and the six counters (skill, creativity, rest, pm_replacements,
# refresh_accepts, hm_accepts) of three short fixed-seed runs of each
# algorithm on F1-F19 (`runs`),
# and of run 0 of each algorithm on every function but F7 at 207 iterations,
# two of CDDO's blocks of draws (cddo.BLOCK) and 7 more (`long`). F7 is left
# out there: its noise follows each block's uniforms, so it moves with BLOCK.
# `wide` digests the same fields of runs 0-1 of hs and cddo-hs at population
# 70 and 60 iterations on F1, F5, F7 and F16: HS's memory (70 rows) and the
# hybrid's pattern memory (56) are wider than one 64-bit word. Those four
# functions take no transcendental array kernel, so `wide` holds under every
# SIMD dispatch.
# `trace runs` and `trace long` digest the bytes of `trace` and
# `best_position` of the same runs. `trace points` digests the lines
# `func repr(evaluate_at(func, x, rng))` of F1-F19 at 50 points each, drawn
# by `core.scale` from a fresh make_rng(2023) per function (F7 draws its noise
# from it after the points): the one-point path of `core.evaluate`, which
# otherwise only the hybrid's refreshes reach. The last bits of these three
# lines follow numpy's SIMD dispatch, and the expected digests were made with
# its AVX-512 kernels (X86_V4), so they are compared only where numpy runs them.
set -eu
# file globs sort by the locale's collation under some shells (bash); pin it
export LC_ALL=C
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cddohs() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m cddohs.cli "$@"; }
digest() { sha256sum | cut -d' ' -f1; }
# the digest of the lines that a python snippet prints with show(..., result):
# repr(best_fitness), then evals, seed and the six counters of each RunResult;
# the hex bytes of its trace and best_position go to the file named by $2
results() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
import sys
from cddohs.benchmarks import FUNCTION_IDS, make_function
from cddohs.core import RunConfig
from cddohs.harness import ALGORITHMS
arrays = open(sys.argv[1], "w")
def show(*args):
    *key, r = args
    print(*key, repr(r.best_fitness), r.evals, r.seed, r.skill, r.creativity, r.rest,
          r.pm_replacements, r.refresh_accepts, r.hm_accepts)
    print(*key, r.trace.tobytes().hex(), r.best_position.tobytes().hex(), file=arrays)
'"$1
arrays.close()" "$2" | digest; }
# exit status 0 where numpy runs its AVX-512 kernels
avx512() { python3 -c '
from numpy._core._multiarray_umath import __cpu_features__ as f
raise SystemExit(not f.get("X86_V4"))'; }

cddohs run --algo all --func all --runs 4 --iters 30 --seed 2023 --out "$tmp/X" >"$tmp/paths"
cddohs run --algo all --func F6,F11,F16 --runs 10 --iters 30 --seed 2023 --out "$tmp/Y" >>"$tmp/paths"
cddohs run --algo hs --func F1,F7 --runs 3 --iters 20 --seed 2023 --out "$tmp/Z" >/dev/null
cddohs run --algo hs --func F16,F17 --runs 9 --iters 500 --seed 2023 --out "$tmp/W" >/dev/null

{
echo "artifacts X  $(cd "$tmp/X" && sha256sum * | digest)"
echo "artifacts Y  $(cd "$tmp/Y" && sha256sum * | digest)"
echo "artifacts Z  $(cd "$tmp/Z" && sha256sum * | digest)"
echo "artifacts W  $(cd "$tmp/W" && sha256sum * | digest)"
echo "paths        $(sed "s|^$tmp/||" "$tmp/paths" | digest)"
echo "compare      $({ cddohs compare --summary "$tmp/X/summary.csv"
                       cddohs compare --summary "$tmp/X/summary.json"; } | digest)"
echo "rank         $(cddohs rank --reference table6 | digest)"
echo "rank run     $({ cddohs rank --input "$tmp/X/summary.csv"
                       cddohs rank --input "$tmp/X/summary.json"; } | digest)"
echo "list         $(cddohs list | digest)"
echo "runs         $(results '
config = RunConfig(pop_size=20, max_iters=50, base_seed=2023)
for algo, run in ALGORITHMS.items():
    for func in FUNCTION_IDS:
        for r in range(3):
            show(algo, func, r, run(make_function(func), config, r))
' "$tmp/runs.bytes")"
echo "long         $(results '
config = RunConfig(pop_size=10, max_iters=207, base_seed=2023)
for algo, run in ALGORITHMS.items():
    for func in FUNCTION_IDS:
        if func != "F7":
            show(algo, func, run(make_function(func), config, 0))
' "$tmp/long.bytes")"
echo "wide         $(results '
config = RunConfig(pop_size=70, max_iters=60, base_seed=2023)
for algo in ("hs", "cddo-hs"):
    for func in ("F1", "F5", "F7", "F16"):
        for r in range(2):
            show(algo, func, r, ALGORITHMS[algo](make_function(func), config, r))
' "$tmp/wide.bytes")"
echo "trace runs   $(digest <"$tmp/runs.bytes")"
echo "trace long   $(digest <"$tmp/long.bytes")"
echo "trace points $(PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
from cddohs.benchmarks import FUNCTION_IDS, evaluate_at, make_function
from cddohs.core import make_rng, scale
for func in FUNCTION_IDS:
    p, rng = make_function(func), make_rng(2023)
    for x in scale(rng.random((50, p.dim)), p.lower, p.upper):
        print(func, repr(evaluate_at(func, x, rng)))
' | digest)"
} >"$tmp/lines"

cat "$tmp/lines"
if avx512; then
    diff -u scripts/refactor_check.expected "$tmp/lines" >&2
else
    echo "numpy runs without its AVX-512 kernels here: the trace lines are not compared" >&2
    grep -v '^trace ' scripts/refactor_check.expected >"$tmp/expected"
    grep -v '^trace ' "$tmp/lines" | diff -u "$tmp/expected" - >&2
fi
