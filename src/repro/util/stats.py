"""Small statistics helpers used by the evaluation pipeline.

The paper reports Pearson correlation between the clustering coefficient and
network performance (Figure 6); :func:`pearson` is the workhorse there.
:class:`RunningStats` provides constant-memory mean/variance accumulation for
the simulator's latency samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation coefficient of two samples.

    Returns ``nan`` when either sample is degenerate (fewer than two points
    or zero variance) instead of raising, because Figure 6's correlation at
    some load points is legitimately undefined (all mappings accept the same
    traffic at very low load).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        return float("nan")
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    sx = float(np.sqrt(np.dot(xd, xd)))
    sy = float(np.sqrt(np.dot(yd, yd)))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    # Subnormal-range deviations lose enough precision in the dot
    # products to push |r| past 1; clamp like numpy.corrcoef does.
    return float(min(1.0, max(-1.0, np.dot(xd, yd) / (sx * sy))))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / std / min / max / median of a sample as a plain dict."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return {"n": 0, "mean": math.nan, "std": math.nan, "min": math.nan,
                "max": math.nan, "median": math.nan}
    return {
        "n": int(a.size),
        "mean": float(a.mean()),
        "std": float(a.std(ddof=1)) if a.size > 1 else 0.0,
        "min": float(a.min()),
        "max": float(a.max()),
        "median": float(np.median(a)),
    }


@dataclass
class RunningStats:
    """Welford's online mean/variance accumulator.

    The simulator records one latency sample per delivered message; with
    millions of messages per sweep we do not want to keep them all.
    """

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _min: float = field(default=math.inf)
    _max: float = field(default=-math.inf)

    def add(self, x: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        return self._max if self.count else math.nan


class ReservoirSampler:
    """Uniform reservoir sample of a stream (Vitter's algorithm R).

    Keeps a bounded uniform sample of the latency stream so percentiles
    can be reported without storing every observation.  Deterministic for
    a given seed and stream.
    """

    def __init__(self, capacity: int = 2048, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        import random as _random

        self.capacity = capacity
        self._rng = _random.Random(seed)
        self._sample: list = []
        self.count = 0

    def add(self, x: float) -> None:
        """Offer one observation to the reservoir."""
        self.count += 1
        if len(self._sample) < self.capacity:
            self._sample.append(x)
            return
        j = self._rng.randrange(self.count)
        if j < self.capacity:
            self._sample[j] = x

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) of the sampled stream; nan when empty."""
        if not (0 <= q <= 100):
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._sample:
            return math.nan
        return float(np.percentile(np.asarray(self._sample), q))

    def percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> Dict[str, float]:
        """Named percentiles, e.g. ``{"p50": ..., "p95": ..., "p99": ...}``.

        One vectorized :func:`numpy.percentile` call: the per-call setup
        (array conversion, dispatch) is a measurable fixed cost per
        simulation run when computed once per quantile.

        An empty reservoir yields an explicitly empty dict rather than
        NaN-valued entries: NaN is not valid JSON, and every consumer
        (trace metrics records, the Prometheus exporter, report
        rendering) treats "no keys" as "no data".
        """
        for q in qs:
            if not (0 <= q <= 100):
                raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._sample:
            return {}
        vals = np.percentile(np.asarray(self._sample), list(qs))
        return {f"p{int(q)}": float(v) for q, v in zip(qs, vals)}


__all__ = ["pearson", "summarize", "RunningStats", "ReservoirSampler"]
