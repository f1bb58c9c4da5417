"""Pure helpers of the benchmark: percentile rule, summaries, residuals, MM counts.

Nothing here imports the program under test at module level, so the
self-tests (``selftest.py``) can exercise these without building data.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Metric names the benchmark emits must match this pattern.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles considered for a timing's tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """True when ``name`` is a legal metric name (``[A-Za-z0-9_.-]+``, ≤ 64)."""
    return bool(METRIC_NAME.fullmatch(name))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least 10 of ``n`` samples beyond it.

    Returns ``None`` when no percentile qualifies (fewer than 20 samples);
    the caller then reports the maximum.
    """
    for q in TAIL_LADDER:
        beyond = n - math.ceil(n * q / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return q
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, tail (by :func:`tail_percentile`, else max) and sample count."""
    values = [float(v) for v in samples]
    if not values:
        return {"median": float("nan"), "tail": float("nan"), "tail_label": "max", "n": 0}
    q = tail_percentile(len(values))
    if q is None:
        tail, label = max(values), "max"
    else:
        tail, label = nearest_rank(values, q), f"p{q:g}"
    return {"median": statistics.median(values), "tail": tail, "tail_label": label,
            "n": len(values)}


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


# -- overflow-safe norms -------------------------------------------------------

def scaled_ssq(x: np.ndarray) -> Tuple[float, float]:
    """``(scale, ssq)`` with ``sum(x**2) == scale**2 * ssq`` and no overflow.

    The LAPACK ``dlassq`` representation: ``scale`` is ``max|x|``, so every
    squared term is at most 1.
    """
    x = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    if x.size == 0:
        return 0.0, 0.0
    scale = float(x.max())
    if scale == 0.0 or not math.isfinite(scale):
        return scale, 1.0 if scale else 0.0
    y = x / scale
    return scale, float(np.dot(y, y))


def combine_ssq(parts: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """Merge ``(scale, ssq)`` pairs into one, rescaling to the largest scale."""
    parts = [(s, q) for s, q in parts if s > 0.0]
    if not parts:
        return 0.0, 0.0
    top = max(s for s, _ in parts)
    return top, sum(q * (s / top) ** 2 for s, q in parts)


def frobenius(parts: Iterable[Tuple[float, float]]) -> float:
    scale, ssq = combine_ssq(parts)
    return scale * math.sqrt(ssq)


def relative_residual(A: np.ndarray, W: np.ndarray, H: np.ndarray, rows: int = 512) -> float:
    """``‖A − WH‖_F / ‖A‖_F`` of a dense ``A``, row block by row block, overflow-safe.

    ``WH`` is never formed whole.
    """
    m = A.shape[0]
    num: List[Tuple[float, float]] = []
    den: List[Tuple[float, float]] = []
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        block = np.asarray(A[lo:hi])
        den.append(scaled_ssq(block))
        num.append(scaled_ssq(block - W[lo:hi] @ H))
    a = frobenius(den)
    return frobenius(num) / a if a > 0 else 0.0


# -- computed MM counts ----------------------------------------------------------

def mm_counts(A_block: np.ndarray, k: int) -> Tuple[float, float]:
    """Computed flops and bytes of one local MM of a dense ``A_block`` with k columns.

    Flops follow the paper's §4.3 count, ``2·m·n·k``.  Bytes are the
    compulsory traffic: the data block once, the factor block once and the
    output once — a lower bound that ignores cache misses.
    """
    m, n = A_block.shape
    return 2.0 * m * n * k, 8.0 * (m * n + n * k + m * k)
