"""p-Wasserstein distances on R and R^d via quantile and copula formulas.

One-dimensional distances come from the comonotone coupling: as the CDF
integral (p = 1), the quantile integral, or the double integral against the
joint CDF min(F(x), G(y)). In d dimensions, laws sharing a copula decompose
into the sum of their coordinate distances, and for the q-norm variant the
norm-equivalence constants give a two-sided sandwich.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .copulas import EmpiricalCopula, comonotone_cells, expect_comonotone
from .distributions import Distribution1D, Empirical, Exponential, Normal, Uniform, check_order
from .grids import U_CLAMP, integrate_unit, quad_cells, quad_tol


class Method(str, Enum):
    CDF_INTEGRAL = "CdfIntegral"
    QUANTILE_INTEGRAL = "QuantileIntegral"
    COMONOTONE_COPULA_INTEGRAL = "ComonotoneCopulaIntegral"
    SHARED_COPULA_SUM = "SharedCopulaSum"


@dataclass(frozen=True)
class DistanceReport:
    """Computed distance with its p-th power, method and error estimate.

    value is the distance W_p itself, power_value its p-th power; bounds,
    when present, sandwich the p-th power of the q-norm variant W_{p,q}.
    """

    p: float
    value: float
    power_value: float
    method: Method
    error_estimate: float
    q: float | None = None
    bounds: tuple[float, float] | None = None
    copula: str | None = None

    def __post_init__(self):
        if self.value < 0 or self.power_value < 0:
            raise ValueError("distances are nonnegative")
        if abs(self.value - self.power_value ** (1.0 / self.p)) > 1e-12 * max(1.0, self.value):
            raise ValueError("value must be the p-th root of power_value")

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "q": self.q,
            "value": self.value,
            "power_value": self.power_value,
            "method": self.method.value,
            "error_estimate": self.error_estimate,
            "bounds": list(self.bounds) if self.bounds is not None else None,
        }
        if self.copula is not None:
            out["copula"] = self.copula
        return out


def _report(p: float, power: float, method: Method, err: float, **kw) -> DistanceReport:
    # e.g. x - y overflows for atoms at 1e308 and -1e308; a W_{p,q} bound
    # d^(p/q - 1) S can overflow where S does not
    for v in (power, *kw.get("bounds", ())):
        if not math.isfinite(v):
            raise OverflowError(f"W_p^p = {v} is not a finite float")
    power = max(power, 0.0)
    return DistanceReport(
        p=float(p),
        value=power ** (1.0 / p),
        power_value=power,
        method=method,
        error_estimate=err,
        **kw,
    )


def w1_cdf(F: Distribution1D, G: Distribution1D, tol: float | None = None) -> DistanceReport:
    """W_1 as the area between the distribution functions, int |F - G| dx:
    an exact sum for two atomic laws, else quadrature to tol (None: 1e-10)."""
    tol = quad_tol(tol, 1e-10)
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        return _report(1.0, _w1_cdf_empirical(F, G), Method.CDF_INTEGRAL, 0.0)
    lo = min(F.quantile(U_CLAMP), G.quantile(U_CLAMP))
    hi = max(F.quantile(1.0 - U_CLAMP), G.quantile(1.0 - U_CLAMP))
    pts = sorted(
        {x for d in (F, G) if isinstance(d, Empirical) for x in d.locations if lo < x < hi}
    )
    value, err = quad_cells(lambda x: abs(F.cdf(x) - G.cdf(x)), [lo, *pts, hi], tol)
    return _report(1.0, value, Method.CDF_INTEGRAL, err)


def _w1_cdf_empirical(F: Empirical, G: Empirical) -> float:
    # one pass over both sorted location lists: between consecutive merged
    # locations x < x' both distribution functions are constant
    xf = F.locations + (math.inf,)  # a sentinel past every finite location
    xg = G.locations + (math.inf,)
    cf, cg = F.cumulative(), G.cumulative()
    i = j = 0
    u, v = xf[0], xg[0]  # the next locations xf[i] and xg[j]
    a = b = 0.0  # F(x) and G(x)
    x = u if u < v else v
    terms = []
    while True:
        if u == x:
            a = cf[i]
            i += 1
            u = xf[i]
        if v == x:
            b = cg[j]
            j += 1
            v = xg[j]
        nxt = u if u < v else v
        if nxt == math.inf:
            return math.fsum(terms)
        terms.append(abs(a - b) * (nxt - x))
        x = nxt


def _wp_power_empirical(F: Empirical, G: Empirical, p: float) -> float:
    xf, xg = F.locations, G.locations
    return math.fsum([m * abs(xf[i] - xg[j]) ** p for i, j, _, m in comonotone_cells(F, G)])


def _same_family_power(F: Distribution1D, G: Distribution1D, p: float) -> float | None:
    """W_p^p of two Normal, Uniform or Exponential laws of one family, or None.

    F^{-1} - G^{-1} is mu + sigma Phi^{-1}(u), alpha + beta u or
    c (-log(1 - u)): the quantile function of one law D of that family,
    reflected (u -> 1 - u, or x -> -x) when the scale is negative, so the
    power is D's cell (0, 1) against y = 0. Equal scales leave the constant
    shift."""
    if type(F) is not type(G):
        return None
    if isinstance(F, Normal):
        # Phi^{-1}(1 - u) = -Phi^{-1}(u): a negative sigma reflects to |sigma|
        shift, scale = F.mean - G.mean, abs(F.stddev - G.stddev)
        law = Normal(shift, scale) if scale > 0.0 else None
    elif isinstance(F, Uniform):
        shift, end = sorted((F.a - G.a, F.b - G.b))  # the values at u = 0 and 1
        law = Uniform(shift, end) if shift < end else None
    elif isinstance(F, Exponential):
        c = abs(1.0 / F.rate - 1.0 / G.rate)
        shift = 0.0  # where c is 0, or so small that 1 / c overflows
        law = Exponential(1.0 / c) if c and math.isfinite(1.0 / c) else None
    else:
        return None
    return abs(shift) ** p if law is None else law.quantile_cell(0.0, 1.0, 0.0, p)


def _closed_form_power(F: Distribution1D, G: Distribution1D, p: float) -> float | None:
    """W_p^p by closed-form cells, or None where a cell has none.

    Against an atomic law G, walk G's levels: on the cell (prev, c] G^{-1}
    is its atom y, and F's cell integral is in closed form (a parametric law
    has no levels of its own). Two parametric laws of one family reduce to
    one law (_same_family_power)."""
    if isinstance(F, Empirical):
        F, G = G, F
    if not isinstance(G, Empirical):
        return _same_family_power(F, G, p)
    terms = []
    prev = 0.0
    for y, c in zip(G.locations, G.cumulative()):
        cell = F.quantile_cell(prev, c, y, p)
        if cell is None:
            return None
        terms.append(cell)
        prev = c
    return math.fsum(terms)


def _kinks(F: Distribution1D, G: Distribution1D, p: float) -> list[float]:
    """Levels inside a cell where F^{-1}(u) - G^{-1}(u) changes sign, for
    p < 2: there |F^{-1} - G^{-1}|^p is not twice differentiable, and quad
    misses its tolerance (by up to 1e-4 relative at p = 1) unless the cell
    is split. At p >= 2 a split only makes a steeper cell end. The levels
    are F(y) for each atom y of an atomic G whose cell holds it, or the
    closed-form crossing of two Normal or two Uniform laws; other pairs
    give none."""
    if p >= 2.0:
        return []
    if isinstance(F, Empirical):
        F, G = G, F
    if isinstance(G, Empirical):
        if isinstance(F, Empirical):
            return []
        levels = []
        prev = 0.0
        for y, c in zip(G.locations, G.cumulative()):
            u = F.cdf(y)
            if prev < u < c:
                levels.append(u)
            prev = c
        return levels
    if type(F) is type(G) is Normal and F.stddev != G.stddev:
        # mu + sigma z = 0 at z = -mu / sigma
        z = (F.mean - G.mean) / (F.stddev - G.stddev)
        return [0.5 * math.erfc(z / math.sqrt(2.0))]
    if type(F) is type(G) is Uniform:
        alpha, beta = F.a - G.a, (F.b - F.a) - (G.b - G.a)
        if beta != 0.0 and 0.0 < -alpha / beta < 1.0:
            return [-alpha / beta]
    return []


def wp_quantile(
    F: Distribution1D, G: Distribution1D, p: float, tol: float | None = None
) -> DistanceReport:
    """W_p^p as the quantile integral int_0^1 |F^{-1}(u) - G^{-1}(u)|^p du.

    The laws choose the route: two atomic laws sum their cells exactly, and
    other pairs take closed-form cells where every cell has one (both with
    error_estimate 0.0); the rest integrate numerically to tol (None:
    DEFAULT_QUAD_TOL)."""
    check_order(p)
    tol = quad_tol(tol)
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        return _report(p, _wp_power_empirical(F, G, p), Method.QUANTILE_INTEGRAL, 0.0)
    value = _closed_form_power(F, G, p)
    if value is not None:
        return _report(p, value, Method.QUANTILE_INTEGRAL, 0.0)
    breaks = [*F.cumulative_breakpoints(), *G.cumulative_breakpoints(), *_kinks(F, G, p)]
    value, err = integrate_unit(
        lambda u: abs(F.quantile(u) - G.quantile(u)) ** p, tol, breaks
    )
    return _report(p, value, Method.QUANTILE_INTEGRAL, err)


def wp_via_M(
    F: Distribution1D, G: Distribution1D, p: float, tol: float | None = None
) -> DistanceReport:
    """W_p^p as the double integral of |x - y|^p against the joint CDF
    min(F(x), G(y)), evaluated along the comonotone coupling: exactly for
    two atomic laws, else by quadrature to tol (expect_comonotone)."""
    check_order(p)
    value, err = expect_comonotone(
        F, G, lambda x, y: abs(x - y) ** p, tol, kinks=_kinks(F, G, p)
    )
    return _report(p, value, Method.COMONOTONE_COPULA_INTEGRAL, err)


def _check_margins(marginsF: Sequence[Distribution1D], marginsG: Sequence[Distribution1D]) -> int:
    if len(marginsF) != len(marginsG) or not marginsF:
        raise ValueError("margin lists must be nonempty and share a dimension")
    return len(marginsF)


def wp_shared_nd(
    C: EmpiricalCopula | None,
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
    p: float,
    tol: float | None = None,
) -> DistanceReport:
    """W_p^p between two d-dimensional laws sharing the copula C, as the sum
    of the coordinatewise powers. C is recorded for audit; the value depends
    only on the margins once sharedness holds by construction. For d = 1 the
    sharing assumption is vacuous and C may be None."""
    d = _check_margins(marginsF, marginsG)
    if C is None:
        if d != 1:
            raise ValueError("a shared copula is required for d >= 2")
    elif C.dim != d:
        raise ValueError(f"copula dim {C.dim} does not match margin count {d}")
    total = 0.0
    err = 0.0
    for Fi, Gi in zip(marginsF, marginsG):
        r = wp_quantile(Fi, Gi, p, tol)
        total += r.power_value
        err += r.error_estimate
    return _report(
        p, total, Method.SHARED_COPULA_SUM, err,
        copula=repr(C) if C is not None else None,
    )


def wp_lower_bound_nd(
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
    p: float,
    tol: float | None = None,
) -> float:
    """Certified lower bound on W_p^p for any pair of laws with these margins.

    Coordinate projections of a coupling are couplings of the margins, so
    the sum of the one-dimensional powers bounds the joint power from below;
    equality holds exactly when the laws share a copula.
    """
    _check_margins(marginsF, marginsG)
    return math.fsum(
        wp_quantile(Fi, Gi, p, tol).power_value for Fi, Gi in zip(marginsF, marginsG)
    )


def wpq_bounds(
    C: EmpiricalCopula | None,
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
    p: float,
    q: float,
    tol: float | None = None,
) -> DistanceReport:
    """Sandwich the p-th power of the q-norm distance W_{p,q} between laws
    sharing the copula C.

    With S the sum of coordinatewise W_p^p values, the norm-equivalence
    constants give S <= W_{p,q}^p <= d^{p/q-1} S when q <= p, and the
    reversed interval when p <= q.
    """
    check_order(p)
    check_order(q, "q")
    if p == q:
        raise ValueError("p = q collapses the sandwich; use wp_shared_nd instead")
    base = wp_shared_nd(C, marginsF, marginsG, p, tol)
    d = len(marginsF)
    s = base.power_value
    factor = d ** (p / q - 1.0)
    bounds = (s, factor * s) if q < p else (factor * s, s)
    return _report(
        p, s, Method.SHARED_COPULA_SUM, base.error_estimate,
        q=float(q), bounds=bounds, copula=base.copula,
    )
