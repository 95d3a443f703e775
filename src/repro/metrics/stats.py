"""Summary statistics: means and 95% confidence intervals.

Figures 8–10 plot means with 95% confidence error bars over 100 random
scenarios per configuration; this module reproduces that aggregation using
the Student-t interval.

The interval needs one Student-t quantile per sample size.  With
``n`` samples the degrees of freedom ``n - 1`` are an integer, so the
two-sided t CDF is a finite cos²θ series (Abramowitz & Stegun 26.7.3 and
26.7.4, θ = atan(t/√ν)) that Newton's method inverts.  That keeps the
package free of a statistics library for one number;
``scipy.stats.t.ppf`` stays a test-only oracle, matched to 1e-12
relative for df 1–1000 at confidence up to 0.999.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Mean, spread, and a 95% confidence interval of a sample."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:+.4f} ± {self.ci_half_width:.4f} (n={self.n})"


def summarize(samples: Sequence[float], confidence: float = 0.95) -> Summary:
    """Mean with a Student-t confidence interval.

    Degenerate samples are handled explicitly: a single observation gets a
    zero-width interval (there is nothing to infer a spread from), and an
    empty sample is an error.
    """
    if not samples:
        raise ConfigurationError("cannot summarize an empty sample")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return Summary(n=1, mean=mean, std=0.0, ci_low=mean, ci_high=mean)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    if std == 0.0:
        return Summary(n=n, mean=mean, std=0.0, ci_low=mean, ci_high=mean)
    t_crit = t_critical(confidence, n - 1)
    half = t_crit * std / math.sqrt(n)
    return Summary(n=n, mean=mean, std=std, ci_low=mean - half, ci_high=mean + half)


def _t_two_sided_cdf(t: float, df: int) -> float:
    """``P(|T| <= t)`` for a Student-t variable with integer ``df`` >= 1."""
    cos2 = df / (df + t * t)  # cos²θ
    sin = t / math.sqrt(df + t * t)  # sinθ
    if df % 2 == 0:
        # A&S 26.7.3: sinθ (1 + cos²θ/2 + 1·3/(2·4) cos⁴θ + ...), ν/2 terms.
        term = series = 1.0
        for j in range(1, df // 2):
            term *= (2 * j - 1) / (2 * j) * cos2
            series += term
        return sin * series
    # A&S 26.7.4: (2/π)(θ + sinθ (cosθ + 2/3 cos³θ + ...)), (ν-1)/2 terms.
    theta = math.atan2(t, math.sqrt(df))
    term = math.sqrt(cos2)
    series = term if df > 1 else 0.0
    for j in range(1, (df - 1) // 2):
        term *= (2 * j) / (2 * j + 1) * cos2
        series += term
    return 2.0 / math.pi * (theta + sin * series)


def _t_density(t: float, df: int) -> float:
    """The Student-t density at ``t``."""
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - (df + 1) / 2.0 * math.log1p(t * t / df))


def t_critical(confidence: float, df: int) -> float:
    """The two-sided Student-t critical value: ``t`` with ``P(|T| <= t)``
    equal to ``confidence`` — the ``0.5 + confidence/2`` quantile.

    ``P(|T| <= t)`` is concave on ``t >= 0``, so Newton's method started
    at 0 climbs monotonically to the root and never overshoots; it stops
    once a step no longer moves ``t`` forward.
    """
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    if df < 1:
        raise ConfigurationError(f"degrees of freedom must be >= 1, got {df}")
    t = 0.0
    for _ in range(200):  # a few dozen steps at most, even at 1 - 1e-15
        density = _t_density(t, df)
        if density == 0.0:  # underflow: past any tail a float can resolve
            break
        step = (confidence - _t_two_sided_cdf(t, df)) / (2.0 * density)
        if not t + step > t:
            break
        t += step
    return t


def confidence_interval_95(samples: Sequence[float]) -> tuple[float, float]:
    """The 95% confidence interval of the sample mean."""
    summary = summarize(samples, confidence=0.95)
    return (summary.ci_low, summary.ci_high)
