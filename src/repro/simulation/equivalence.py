"""Statistical-equivalence contract between simulation engines.

The ``reference``/``fast`` engines are bit-identical: every RNG
draw and arbitration decision happens in the same order, so their payloads
can be compared with ``==``.  The ``vector`` engine deliberately breaks
that contract — it draws per-replication counter-based streams and
arbitrates whole arrays at once — so it is deterministic given
``(seed, engine)`` but *not* draw-order-identical to the reference
lineage.  Its correctness claim is statistical: across many seeds, the
distributions of mean latency and delivered throughput at every
``(traffic, rate)`` point must be indistinguishable from the reference
lineage's, and the paper's qualitative orderings (OP beating the random
mappings) must survive the engine swap.

This module is that claim as code.  It is dependency-light on purpose:
CI installs numpy but not scipy, so the Welch t-test p-value is computed
from first principles — Student's t CDF via the regularized incomplete
beta function (continued fraction + ``math.lgamma``), accurate to ~1e-10
over the ranges we use, cross-checked against scipy in the test suite
when scipy happens to be present.

Decision rule
-------------
A metric point fails only when BOTH detectors fire:

- Welch's t-test rejects equal means at ``alpha`` (two-sided), and
- the two ``(1 - alpha)`` confidence intervals for the mean are disjoint.

Either test alone is noisy at n≈30: the t-test flags tiny-but-real
implementation differences of no practical consequence (and flukes at a
rate of ``alpha``), while CI overlap alone under-rejects.  Requiring both
keeps the checker sensitive to genuine bugs (a mis-seeded stream or a
dropped arbitration shifts latency by whole cycles, failing both
decisively) yet stable across seed choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "EquivalencePoint",
    "EquivalenceReport",
    "check_equivalence",
    "check_rank_preservation",
    "mean_ci",
    "student_t_cdf",
    "student_t_sf",
    "welch_t",
]

# Two-sided significance level and the matching CI coverage.  0.01 keeps
# the family-wise false-alarm rate manageable across the ~dozens of
# (metric, rate) points a full equivalence run inspects.
DEFAULT_ALPHA = 0.01

_MAX_CF_ITER = 300
_CF_EPS = 1e-12
_TINY = 1e-300


# --------------------------------------------------------------------- #
# Student's t distribution from first principles (no scipy)
# --------------------------------------------------------------------- #

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta function.

    Lentz's algorithm, as in Numerical Recipes §6.4.  Converges in a few
    dozen iterations for the ``x < (a + 1) / (a + b + 2)`` regime the
    caller guarantees.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return h


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the
    # fast-converging regime of the continued fraction.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    p = 0.5 * _betainc_reg(0.5 * df, 0.5, x)
    return p if t < 0.0 else 1.0 - p


def student_t_sf(t: float, df: float) -> float:
    """Two-sided survival: P(|T| >= |t|)."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    x = df / (df + t * t)
    return _betainc_reg(0.5 * df, 0.5, x)


def _t_quantile(p: float, df: float) -> float:
    """Upper-tail quantile: t such that P(T > t) = p, for p in (0, 0.5).

    Bisection on the monotone CDF — a handful of extra iterations beats
    carrying an inverse-incomplete-beta implementation, and this runs a
    few times per report, not per sample.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"quantile p must be in (0, 0.5), got {p}")
    lo, hi = 0.0, 2.0
    while 1.0 - student_t_cdf(hi, df) > p:
        hi *= 2.0
        if hi > 1e8:  # pragma: no cover - df >= 1 converges long before
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - student_t_cdf(mid, df) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------- #
# Welch's t-test and confidence intervals
# --------------------------------------------------------------------- #

def _mean_var(xs: Sequence[float]) -> Tuple[float, float, int]:
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 samples per side, got {n}")
    mean = math.fsum(xs) / n
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, var, n


def welch_t(
    xs: Sequence[float], ys: Sequence[float],
) -> Tuple[float, float, float]:
    """Welch's unequal-variance t-test.

    Returns ``(t_statistic, degrees_of_freedom, two_sided_p)``.  Two
    identically-constant samples compare equal (t = 0, p = 1) rather
    than dividing by zero — degenerate but legitimate at rates so low
    that every seed delivers every message with identical latency.
    """
    mx, vx, nx = _mean_var(xs)
    my, vy, ny = _mean_var(ys)
    sx, sy = vx / nx, vy / ny
    se2 = sx + sy
    if se2 == 0.0:
        return (0.0, float(nx + ny - 2), 1.0) if mx == my else (
            math.inf, float(nx + ny - 2), 0.0)
    t = (mx - my) / math.sqrt(se2)
    # Welch–Satterthwaite degrees of freedom.
    df = se2 * se2 / (
        (sx * sx) / (nx - 1) + (sy * sy) / (ny - 1)
    )
    return t, df, student_t_sf(t, df)


def mean_ci(
    xs: Sequence[float], alpha: float = DEFAULT_ALPHA,
) -> Tuple[float, float, float]:
    """``(mean, lo, hi)`` — the two-sided ``1 - alpha`` CI for the mean."""
    mean, var, n = _mean_var(xs)
    if var == 0.0:
        return mean, mean, mean
    half = _t_quantile(alpha / 2.0, float(n - 1)) * math.sqrt(var / n)
    return mean, mean - half, mean + half


# --------------------------------------------------------------------- #
# The contract
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class EquivalencePoint:
    """Verdict for one (label, metric) sample pair."""

    label: str
    metric: str
    mean_a: float
    mean_b: float
    t_statistic: float
    df: float
    p_value: float
    ci_a: Tuple[float, float]
    ci_b: Tuple[float, float]
    rejected_by_t: bool
    cis_disjoint: bool

    @property
    def equivalent(self) -> bool:
        """Fails only when the t-test AND the CI check agree on a shift."""
        return not (self.rejected_by_t and self.cis_disjoint)


@dataclass
class EquivalenceReport:
    """All point verdicts of one engine-vs-engine comparison."""

    alpha: float
    points: List[EquivalencePoint] = field(default_factory=list)

    @property
    def failures(self) -> List[EquivalencePoint]:
        return [p for p in self.points if not p.equivalent]

    @property
    def equivalent(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Human-readable per-point verdict table (for assertion messages)."""
        lines = [
            f"equivalence @ alpha={self.alpha}: "
            f"{len(self.points) - len(self.failures)}/{len(self.points)} "
            f"points pass"
        ]
        for p in self.points:
            tag = "ok  " if p.equivalent else "FAIL"
            lines.append(
                f"  [{tag}] {p.label}/{p.metric}: "
                f"{p.mean_a:.4g} vs {p.mean_b:.4g} "
                f"(t={p.t_statistic:+.3f}, df={p.df:.1f}, p={p.p_value:.4f})"
            )
        return "\n".join(lines)


def check_equivalence(
    samples_a: Dict[str, Dict[str, Sequence[float]]],
    samples_b: Dict[str, Dict[str, Sequence[float]]],
    alpha: float = DEFAULT_ALPHA,
) -> EquivalenceReport:
    """Compare two engines' per-point sample sets.

    ``samples_a[label][metric]`` is a sequence of per-seed measurements
    (e.g. ``label='OP@0.0108'``, ``metric='latency'``).  Both sides must
    provide the same (label, metric) grid; the verdict for each point is
    the combined t-test + CI rule described in the module docstring.
    The whole procedure is deterministic: same samples in, same report
    out, no RNG anywhere.
    """
    if set(samples_a) != set(samples_b):
        raise ValueError(
            "sample sets disagree on labels: "
            f"{sorted(set(samples_a) ^ set(samples_b))}"
        )
    report = EquivalenceReport(alpha=alpha)
    for label in sorted(samples_a):
        ma, mb = samples_a[label], samples_b[label]
        if set(ma) != set(mb):
            raise ValueError(
                f"label {label!r} disagrees on metrics: "
                f"{sorted(set(ma) ^ set(mb))}"
            )
        for metric in sorted(ma):
            xs, ys = list(ma[metric]), list(mb[metric])
            t, df, p = welch_t(xs, ys)
            mean_a, lo_a, hi_a = mean_ci(xs, alpha)
            mean_b, lo_b, hi_b = mean_ci(ys, alpha)
            report.points.append(EquivalencePoint(
                label=label,
                metric=metric,
                mean_a=mean_a,
                mean_b=mean_b,
                t_statistic=t,
                df=df,
                p_value=p,
                ci_a=(lo_a, hi_a),
                ci_b=(lo_b, hi_b),
                rejected_by_t=p < alpha,
                cis_disjoint=hi_a < lo_b or hi_b < lo_a,
            ))
    return report


def check_rank_preservation(
    scores_a: Dict[str, float],
    scores_b: Dict[str, float],
    higher_is_better: bool = True,
) -> Tuple[bool, List[str], List[str]]:
    """Do two engines rank the same contestants in the same order?

    Used for the paper's qualitative claim: the OP mapping outperforms
    R1/R2/R3 regardless of which engine simulates them.  Returns
    ``(preserved, order_a, order_b)`` where the orders list keys from
    best to worst.
    """
    if set(scores_a) != set(scores_b):
        raise ValueError(
            "score sets disagree on keys: "
            f"{sorted(set(scores_a) ^ set(scores_b))}"
        )

    def ranked(scores: Dict[str, float]) -> List[str]:
        # Sort by score with the key as a deterministic tie-break.
        return [k for k, _ in sorted(
            scores.items(),
            key=lambda kv: (-kv[1] if higher_is_better else kv[1], kv[0]),
        )]

    order_a, order_b = ranked(scores_a), ranked(scores_b)
    return order_a == order_b, order_a, order_b
