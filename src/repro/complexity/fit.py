"""Fitting measured resource curves to the asymptotic shapes the paper claims.

The benchmarks produce series like "parallel depth of the dcr query at
n = 16, 32, ..., 4096".  The paper's claims are asymptotic (Theta(log n),
Theta(log^k n), Theta(n), polynomial); this module fits the measured points to
those shapes with closed-form least squares and reports which shape explains
the data best.  It deliberately stays simple -- the point is to make "the
growth is logarithmic, not linear" a checked, printed fact rather than a
claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FitResult:
    """One candidate model fitted to a measured series."""

    model: str
    coefficient: float
    offset: float
    residual: float

    def predict(self, n: float) -> float:
        basis = _basis_value(self.model, n)
        return self.coefficient * basis + self.offset


def _basis_value(model: str, n: float) -> float:
    if model == "constant":
        return 0.0
    if model == "log":
        return math.log2(n + 1)
    if model.startswith("log^"):
        k = int(model[4:])
        return math.log2(n + 1) ** k
    if model == "linear":
        return float(n)
    if model == "n log n":
        return n * math.log2(n + 1)
    if model.startswith("n^"):
        d = float(model[2:])
        return float(n) ** d
    raise ValueError(f"unknown model {model!r}")


def fit_model(model: str, ns: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Least-squares fit of ``y = a * basis(n) + b`` for the named model."""
    if len(ns) != len(ys) or len(ns) < 2:
        raise ValueError("need at least two matching points to fit")
    xs = [_basis_value(model, n) for n in ns]
    ys = [float(y) for y in ys]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx:
        a = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
        b = mean_y - a * mean_x
    else:
        # One distinct basis value (always, for "constant"): the
        # minimum-norm solution of ``a * x + b = mean_y``.
        scale = mean_x * mean_x + 1.0
        a, b = mean_x * mean_y / scale, mean_y / scale
    residual = math.sqrt(sum((a * x + b - y) ** 2 for x, y in zip(xs, ys)) / len(ys))
    return FitResult(model, a, b, residual)


DEFAULT_MODELS = ("constant", "log", "log^2", "log^3", "linear", "n log n", "n^2", "n^3")


def best_fit(
    ns: Sequence[float],
    ys: Sequence[float],
    models: Sequence[str] = DEFAULT_MODELS,
) -> FitResult:
    """The candidate model with the smallest *normalised* residual.

    Residuals are normalised by the mean of the series so that models are
    compared on relative error; ties (within 5%) are broken towards the
    slower-growing model, which keeps the verdicts conservative.
    """
    mean = sum(abs(float(y)) for y in ys) / len(ys) or 1.0
    fits = [fit_model(m, ns, ys) for m in models]
    order = {m: i for i, m in enumerate(models)}
    fits.sort(key=lambda f: (round(f.residual / mean, 3), order[f.model]))
    return fits[0]


def growth_class(ns: Sequence[float], ys: Sequence[float]) -> str:
    """A human-readable verdict: 'constant', 'log', 'log^k', 'linear', 'n^d'."""
    return best_fit(ns, ys).model


def doubling_ratios(ys: Sequence[float]) -> list[float]:
    """Successive ratios ``y[i+1] / y[i]`` -- a quick eyeball of growth.

    Logarithmic series have ratios tending to 1, linear series (on doubling
    ``n``) have ratios tending to 2, quadratic to 4, exponential to much more.
    """
    out = []
    for i in range(len(ys) - 1):
        prev = ys[i] if ys[i] != 0 else 1e-9
        out.append(ys[i + 1] / prev)
    return out


def is_polylog(ns: Sequence[float], ys: Sequence[float], max_k: int = 3) -> bool:
    """Does some ``log^k`` model (k <= max_k) fit better than the linear one?"""
    candidates = ["log"] + [f"log^{k}" for k in range(2, max_k + 1)]
    best_poly = min((fit_model(m, ns, ys).residual for m in candidates))
    linear = fit_model("linear", ns, ys).residual
    return best_poly <= linear


def is_polynomial_not_exponential(ns: Sequence[float], ys: Sequence[float]) -> bool:
    """Crude check that a series grows at most polynomially.

    On a geometric grid of ``n`` the doubling ratios of a polynomial series
    are bounded by a constant (2^degree); exponential series have ratios that
    themselves grow without bound.
    """
    ratios = doubling_ratios(ys)
    if len(ratios) < 2:
        return True
    half = len(ratios) // 2
    early = max(ratios[:half]) if ratios[:half] else 1.0
    late = max(ratios[half:])
    return late <= max(16.0, early * 2.0)
