"""CDDO, Harmony Search, and the CDDO-HS hybrid with a benchmark harness."""

from .benchmarks import FUNCTION_IDS, evaluate_at, make_function
from .cddo import CddoParams, cddo_run
from .core import Problem, RunConfig, RunResult
from .hs import HsParams, hs_run
from .hybrid import HybridParams, cddo_hs_run
from .stats import rank_algorithms, summarize, wilcoxon_rank_sum

__all__ = [
    "FUNCTION_IDS", "evaluate_at", "make_function",
    "CddoParams", "cddo_run",
    "Problem", "RunConfig", "RunResult",
    "HsParams", "hs_run",
    "HybridParams", "cddo_hs_run",
    "rank_algorithms", "summarize", "wilcoxon_rank_sum",
]

__version__ = "0.1.0"
