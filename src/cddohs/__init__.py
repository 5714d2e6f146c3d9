"""CDDO, Harmony Search, and the CDDO-HS hybrid with a benchmark harness."""

from .benchmarks import FUNCTION_IDS, evaluate_at, make_function
from .cddo import cddo_run
from .core import Problem, RunConfig, RunResult
from .hs import hs_run
from .hybrid import cddo_hs_run
from .stats import rank_algorithms, summarize, wilcoxon_rank_sum

__all__ = [
    "FUNCTION_IDS", "evaluate_at", "make_function",
    "cddo_run", "hs_run", "cddo_hs_run",
    "Problem", "RunConfig", "RunResult",
    "rank_algorithms", "summarize", "wilcoxon_rank_sum",
]

__version__ = "0.1.0"
