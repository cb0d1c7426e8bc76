"""Model-fit and convergence metrics: WAIC, CRPS, and the Geweke statistic."""

from __future__ import annotations

import json

import numpy as np
from scipy.special import logsumexp

from .data import format_float
from .errors import DegenerateDraws, ZeroVariance


def waic(loglik: np.ndarray) -> float:
    """Widely applicable information criterion, -2*(lppd - p_waic).

    `loglik` has one row per observed cell and one column per retained draw.
    Smaller is better; the pointwise lppd uses log-sum-exp stabilization and
    p_waic is the sample variance of the log density over draws.
    """
    return waic_parts(loglik)["waic"]


def waic_parts(loglik: np.ndarray) -> dict:
    """WAIC with its two terms: lppd, p_waic and waic (see `waic`)."""
    ll = np.asarray(loglik, dtype=float)
    if ll.ndim != 2 or ll.shape[1] < 2:
        raise DegenerateDraws("WAIC needs at least two retained draws")
    S = ll.shape[1]
    lppd = float(np.sum(logsumexp(ll, axis=1) - np.log(S)))
    p_waic = float(np.sum(np.var(ll, axis=1, ddof=1)))
    return {"lppd": lppd, "p_waic": p_waic, "waic": -2.0 * (lppd - p_waic)}


def crps(samples: np.ndarray, y: float) -> float:
    """Empirical continuous ranked probability score of an ensemble at y.

    mean|X - y| - 0.5 * mean|X - X'| over all ordered pairs including
    self-pairs (divisor S^2), so results are bit-reproducible.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DegenerateDraws("CRPS needs at least one sample")
    term1 = float(np.mean(np.abs(x - y)))
    xs = np.sort(x)
    n = xs.size
    # sum_{i<j} (x_(j) - x_(i)) via order statistics; ordered pairs double it
    coef = 2.0 * np.arange(1, n + 1) - n - 1
    pair_sum = 2.0 * float(coef @ xs)
    return term1 - 0.5 * pair_sum / (n * n)


def _spectral_variance_at_zero(x: np.ndarray) -> float:
    """Bartlett-windowed spectral density at frequency zero, 4% lag window."""
    n = x.size
    xc = x - x.mean()
    gamma0 = float(xc @ xc) / n
    # a constant x can centre to rounding residues (mean of 0.99s != 0.99)
    if gamma0 == 0.0 or np.ptp(x) == 0.0:
        raise ZeroVariance("segment has zero variance")
    L = max(1, int(0.04 * n))
    s = gamma0
    for h in range(1, L + 1):
        gam = float(xc[:-h] @ xc[h:]) / n
        s += 2.0 * (1.0 - h / (L + 1.0)) * gam
    if s <= 0:
        s = gamma0
    return s


def geweke_z(chain: np.ndarray, frac_a: float = 0.1, frac_b: float = 0.5) -> float:
    """Geweke convergence score comparing the first and last chain segments.

    z = (mean_a - mean_b) / sqrt(S_a(0)/n_a + S_b(0)/n_b) with spectral
    variance estimates; approximately standard normal for a stationary chain.
    """
    x = np.asarray(chain, dtype=float).ravel()
    if x.size < 20:
        raise DegenerateDraws("Geweke needs a chain of length >= 20")
    na = max(2, int(frac_a * x.size))
    nb = max(2, int(frac_b * x.size))
    a = x[:na]
    b = x[x.size - nb:]
    sv_a = _spectral_variance_at_zero(a) / na
    sv_b = _spectral_variance_at_zero(b) / nb
    return float((a.mean() - b.mean()) / np.sqrt(sv_a + sv_b))


def write_report(path_txt, path_json, entries: dict) -> None:
    """Flat key/value diagnostics report, text and JSON flavors."""
    with open(path_txt, "w") as fh:
        for key in sorted(entries):
            val = entries[key]
            if isinstance(val, float):
                fh.write(f"{key} = {format_float(val)}\n")
            else:
                fh.write(f"{key} = {val}\n")
    with open(path_json, "w") as fh:
        json.dump(entries, fh, sort_keys=True, indent=1)
        fh.write("\n")
