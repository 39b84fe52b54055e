"""Correlation analyses: scanned volume vs errors, temperature (Sec III-F/G).

* Pearson correlation between daily terabyte-hours scanned and daily
  error counts (paper: r = -0.18, p = 0.0002 — i.e. the methodology does
  not induce the errors it observes);
* temperature histograms at error time by bit count (Figs 7, 8): mass at
  30-40 C, a small population above 60 C, no correlation for multi-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..logs.frame import ErrorFrame


def _betainc(a: float, b: float, x: float, x_complement: float) -> float:
    """Regularized incomplete beta I_x(a, b), ``x_complement = 1 - x``.

    The continued fraction (modified Lentz) converges fast for
    ``x < (a + 1) / (a + b + 2)``; above that the symmetry
    ``I_x(a, b) = 1 - I_{1-x}(b, a)`` is used.  Taking ``1 - x`` as an
    argument keeps it exact when ``x`` is close to 1.
    """
    if x <= 0.0:
        return 0.0
    if x_complement <= 0.0:
        return 1.0
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, x_complement = b, a, x_complement, x
    log_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    tail = math.exp(log_front) * fraction / a
    return 1.0 - tail if swap else tail


def _pearsonr(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson r and its two-sided p-value, as ``scipy.stats.pearsonr``.

    ``r`` is the dot product of the centered series divided by their
    norms; under the null hypothesis ``t = r sqrt(df / (1 - r^2))``
    follows Student's t with ``df = n - 2``, whose two-sided tail is
    ``I_{df / (df + t^2)}(df / 2, 1 / 2)``.  A constant series has no
    correlation: ``(nan, nan)``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y must have the same length")
    if n < 2:
        raise ValueError("x and y must have length at least 2")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan, math.nan
    xm = x - x.mean()
    ym = y - y.mean()
    r = float(np.dot(xm / np.linalg.norm(xm), ym / np.linalg.norm(ym)))
    r = min(max(r, -1.0), 1.0)
    if n == 2:
        return float(round(r)), 1.0
    if abs(r) == 1.0:
        return r, 0.0
    df = n - 2
    t2 = r * r * df / ((1.0 - r) * (1.0 + r))
    return r, _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


@dataclass(frozen=True)
class PearsonResult:
    r: float
    p_value: float
    n: int

    @property
    def is_weak(self) -> bool:
        """|r| < 0.3 — the paper's "rather low level of anti-correlation"."""
        return abs(self.r) < 0.3


def scanned_vs_errors(
    daily_tbh: np.ndarray, daily_errors: np.ndarray
) -> PearsonResult:
    """Pearson correlation of the two daily series (Sec III-G)."""
    daily_tbh = np.asarray(daily_tbh, dtype=np.float64)
    daily_errors = np.asarray(daily_errors, dtype=np.float64)
    if daily_tbh.shape != daily_errors.shape:
        raise ValueError("daily series must be aligned")
    r, p = _pearsonr(daily_tbh, daily_errors)
    return PearsonResult(r=float(r), p_value=float(p), n=daily_tbh.shape[0])


#: Temperature bin edges used by the Fig 7/8 histograms.
TEMP_BINS = np.arange(20.0, 92.5, 2.5)


@dataclass(frozen=True)
class TemperatureHistogram:
    """Errors per temperature bin, keyed by bit bucket."""

    bin_edges: np.ndarray
    counts: dict[int, np.ndarray]
    n_without_temperature: int

    def total(self) -> np.ndarray:
        out = np.zeros(self.bin_edges.shape[0] - 1, dtype=np.int64)
        for c in self.counts.values():
            out += c
        return out

    def fraction_in_range(self, lo: float, hi: float) -> float:
        """Fraction of temperature-logged errors with lo <= T < hi."""
        centers = (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0
        total = self.total()
        denom = total.sum()
        if denom == 0:
            return 0.0
        in_range = total[(centers >= lo) & (centers < hi)].sum()
        return float(in_range / denom)


def temperature_histogram(
    frame: ErrorFrame, bins: np.ndarray = TEMP_BINS, multibit_only: bool = False
) -> TemperatureHistogram:
    """Figs 7 (all errors) and 8 (``multibit_only=True``)."""
    if multibit_only:
        frame = frame.multibit_only()
    temps = frame.temperature_c.astype(np.float64)
    has_temp = ~np.isnan(temps)
    nb = np.minimum(frame.n_bits, 6)
    counts: dict[int, np.ndarray] = {}
    for b in np.unique(nb[has_temp]):
        mask = has_temp & (nb == b)
        hist, _ = np.histogram(temps[mask], bins=bins)
        counts[int(b)] = hist
    return TemperatureHistogram(
        bin_edges=np.asarray(bins),
        counts=counts,
        n_without_temperature=int((~has_temp).sum()),
    )


def temperature_correlation(frame: ErrorFrame) -> PearsonResult | None:
    """Pearson r between error temperature and bit count (None if <3 pts).

    The paper concludes there is *no* strong correlation with its
    low-CPU-load methodology; this quantifies that.
    """
    temps = frame.temperature_c.astype(np.float64)
    has_temp = ~np.isnan(temps)
    if int(has_temp.sum()) < 3:
        return None
    t = temps[has_temp]
    nb = frame.n_bits[has_temp].astype(np.float64)
    if np.all(t == t[0]) or np.all(nb == nb[0]):
        return PearsonResult(r=0.0, p_value=1.0, n=int(has_temp.sum()))
    r, p = _pearsonr(t, nb)
    return PearsonResult(r=float(r), p_value=float(p), n=int(has_temp.sum()))
