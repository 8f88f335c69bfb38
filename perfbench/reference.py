"""Independent reference values, computed without wassercop.

- Atomic pairs: the sort-based 1-D optimal transport of Peyré & Cuturi,
  Computational Optimal Transport (2019), section 2.6, in numpy, plus
  scipy.stats.wasserstein_distance for p = 1.
- Discrete measures on R^d: the HiGHS LP in scipy.optimize.linprog.
- Parametric pairs: closed forms. Uniform pairs integrate a polynomial
  piecewise by Gauss-Legendre (exact for the degrees used), Normal pairs
  and Normal-against-atoms use truncated standard-normal moments,
  Exponential pairs use the Gamma function.
"""
from __future__ import annotations

import math

import numpy as np


def wp_merged(x, wx, y, wy, p: float) -> float:
    """W_p^p between two atomic laws by the merged cumulative-weight walk.

    Weights need not be normalised. Each cell between consecutive merged
    cumulative levels pairs one atom of each law.
    """
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    xs, ys = np.asarray(x, float)[ix], np.asarray(y, float)[iy]
    cx = np.cumsum(np.asarray(wx, float)[ix])
    cy = np.cumsum(np.asarray(wy, float)[iy])
    cx, cy = cx / cx[-1], cy / cy[-1]
    levels = np.union1d(cx, cy)
    mass = np.diff(levels, prepend=0.0)
    mid = levels - mass / 2
    i = np.minimum(np.searchsorted(cx, mid), len(xs) - 1)
    j = np.minimum(np.searchsorted(cy, mid), len(ys) - 1)
    return math.fsum(mass * np.abs(xs[i] - ys[j]) ** p)


def wp_sorted(x, y, p: float) -> float:
    """W_p^p between two equal-size, equal-weight samples: pair the order statistics."""
    return float(np.mean(np.abs(np.sort(x) - np.sort(y)) ** p))


def w1_scipy(x, y, wx=None, wy=None) -> float:
    from scipy.stats import wasserstein_distance

    return float(wasserstein_distance(x, y, wx, wy))


def uniform_pair(a1: float, b1: float, a2: float, b2: float, p: float) -> float:
    """W_p^p(U(a1, b1), U(a2, b2)) = int_0^1 |alpha + beta u|^p du, integer p."""
    alpha, beta = a1 - a2, (b1 - a1) - (b2 - a2)
    cuts = [0.0, 1.0]
    if beta != 0.0 and 0.0 < -alpha / beta < 1.0:
        cuts.insert(1, -alpha / beta)
    nodes, weights = np.polynomial.legendre.leggauss(4)  # exact to degree 7
    total = []
    for lo, hi in zip(cuts, cuts[1:]):
        u = lo + (hi - lo) * (nodes + 1.0) / 2.0
        total.append((hi - lo) / 2.0 * float(np.sum(weights * np.abs(alpha + beta * u) ** p)))
    return math.fsum(total)


def _z_moments(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """J_k = int_a^b z^k phi(z) dz for k = 0..3, elementwise, by the
    recursion J_k = (k-1) J_{k-2} + a^{k-1} phi(a) - b^{k-1} phi(b);
    infinite ends contribute nothing to the boundary terms."""
    from scipy.special import ndtr

    def edge(z: np.ndarray, e: int) -> np.ndarray:
        finite = np.where(np.isinf(z), 0.0, z)
        return np.where(np.isinf(z), 0.0, finite**e * np.exp(-0.5 * finite**2) / math.sqrt(2 * math.pi))

    j = [ndtr(b) - ndtr(a), edge(a, 0) - edge(b, 0)]
    for k in (2, 3):
        j.append((k - 1) * j[k - 2] + edge(a, k - 1) - edge(b, k - 1))
    return j


def _shifted_abs_moment(a, b, c, p: int) -> float:
    """sum over cells of int_a^b |z - c|^p phi(z) dz, for integer 1 <= p <= 3."""
    a, b, c = (np.asarray(v, float) for v in (a, b, c))

    def signed(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # int_lo^hi (z - c)^p phi(z) dz by the binomial expansion; empty cells give 0
        j = _z_moments(lo, np.maximum(lo, hi))
        return sum(math.comb(p, k) * (-c) ** (p - k) * j[k] for k in range(p + 1))

    below = signed(a, np.minimum(b, c))
    above = signed(np.maximum(a, c), b)
    return math.fsum(above + (below if p % 2 == 0 else -below))


def normal_pair(m1: float, s1: float, m2: float, s2: float, p: float) -> float:
    """W_p^p(N(m1, s1^2), N(m2, s2^2)) = E|mu + sigma Z|^p, integer p."""
    mu, sigma = m1 - m2, s1 - s2
    if sigma == 0.0:
        return abs(mu) ** p
    if sigma < 0.0:
        mu, sigma = -mu, -sigma
    return sigma**p * _shifted_abs_moment([-math.inf], [math.inf], [-mu / sigma], int(p))


def exponential_pair(l1: float, l2: float, p: float) -> float:
    """W_p^p(Exp(l1), Exp(l2)) = |1/l1 - 1/l2|^p Gamma(p + 1)."""
    return abs(1.0 / l1 - 1.0 / l2) ** p * math.gamma(p + 1.0)


def normal_vs_atoms(xs, p: float) -> float:
    """W_p^p(N(0, 1), equal-weight atoms xs): cell k of the merged staircase
    is (Phi^-1((k-1)/n), Phi^-1(k/n)) in z and pairs z with the k-th order
    statistic, so the integral is a sum of truncated-normal moments."""
    from scipy.special import ndtri

    xs = np.sort(np.asarray(xs, float))
    z = ndtri(np.arange(len(xs) + 1) / len(xs))
    return _shifted_abs_moment(z[:-1], z[1:], xs, int(p))


def cost_matrix(src, dst, p: float) -> np.ndarray:
    """sum_k |x_k - y_k|^p for every pair of locations."""
    a, b = np.asarray(src, float), np.asarray(dst, float)
    return np.sum(np.abs(a[:, None, :] - b[None, :, :]) ** p, axis=2)


def lp_value(src, a, dst, b, p: float) -> float:
    """Optimal transport cost by the HiGHS LP (Huangfu & Hall, 2018)."""
    from scipy.optimize import linprog

    C = cost_matrix(src, dst, p)
    m, n = C.shape
    rows = np.kron(np.eye(m), np.ones((1, n)))
    cols = np.kron(np.ones((1, m)), np.eye(n))
    res = linprog(
        C.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([np.asarray(a, float), np.asarray(b, float)]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)
