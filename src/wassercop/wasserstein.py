"""p-Wasserstein distances on R and R^d via quantile and copula formulas.

One-dimensional distances come from the comonotone coupling: as the CDF
integral (p = 1), the quantile integral, or the double integral against the
joint CDF min(F(x), G(y)). In d dimensions, laws sharing a copula decompose
into the sum of their coordinate distances, and for the q-norm variant the
norm-equivalence constants give a two-sided sandwich.

The quadrature integrands read each law through quantile_function() and
cdf_function() (distributions), which skip the checks of quantile and cdf.
That is safe because quad only ever passes them levels strictly inside
(0, 1) (it never evaluates a cell's own ends) and x inside w1_cdf's finite
range [lo, hi]. The quantile routes integrate over all of (0, 1), with no
clamp: a cell that reaches an unbounded end of a law (a Normal law's two,
an Exponential law's top) is a tail, which integrate_unit integrates in
t = -log u or t = -log(1 - u) over [t0, inf), through the laws' tail
functions; every other cell runs to its own ends, 0.0 and 1.0 included.
Against atoms the cells also come with their integrand for arrays, through
quantile_array(): integrate_unit takes quad's first Gauss-Kronrod step on
every atom cell in one numpy pass, and quad only the cells that step does
not accept. Two parametric laws (one or two cells) and w1_cdf take one
quad per cell.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice
from typing import Sequence

from .copulas import EmpiricalCopula, comonotone_cells
from .distributions import (
    U_CLAMP,
    Distribution1D,
    Empirical,
    Exponential,
    Normal,
    Uniform,
    check_order,
)
from .grids import InputError, QuadratureError, integrate_unit, quad_tol


class Method(str, Enum):
    CDF_INTEGRAL = "CdfIntegral"
    QUANTILE_INTEGRAL = "QuantileIntegral"
    COMONOTONE_COPULA_INTEGRAL = "ComonotoneCopulaIntegral"
    SHARED_COPULA_SUM = "SharedCopulaSum"


@dataclass(frozen=True)
class DistanceReport:
    """Computed distance with its p-th power, method and error estimate.

    power_value is W_p^p and value, derived from it, the distance W_p
    itself; bounds, when present, sandwich the p-th power of the q-norm
    variant W_{p,q}.
    """

    p: float
    power_value: float
    method: Method
    error_estimate: float
    q: float | None = None
    bounds: tuple[float, float] | None = None
    copula: str | None = None

    def __post_init__(self):
        if self.power_value < 0:
            raise ValueError("distances are nonnegative")

    @property
    def value(self) -> float:
        return self.power_value ** (1.0 / self.p)

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
        power_value=power,
        method=method,
        error_estimate=err,
        **kw,
    )


def w1_cdf(F: Distribution1D, G: Distribution1D, tol: float | None = None) -> DistanceReport:
    """W_1 as the area between the distribution functions, int |F - G| dx:
    an exact sum for two atomic laws, else quadrature to tol (None: 1e-10)
    between both laws' quantiles at U_CLAMP and 1 - U_CLAMP, split at
    _cdf_kinks."""
    tol = quad_tol(tol, 1e-10)
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        return _report(1.0, _w1_cdf_empirical(F, G), Method.CDF_INTEGRAL, 0.0)
    lo = min(F.quantile(U_CLAMP), G.quantile(U_CLAMP))
    hi = max(F.quantile(1.0 - U_CLAMP), G.quantile(1.0 - U_CLAMP))
    if not -math.inf < lo < hi < math.inf:
        # e.g. N(1e20, 1) and N(1e20, 2): every clamped quantile rounds to
        # 1e20; or an exponential rate near 5e-309, whose clamped upper
        # quantile is inf (quadrature over an infinite end reads 0.0)
        raise QuadratureError(
            f"the cdf route cannot resolve the range [{lo!r}, {hi!r}] of these laws in floats"
        )
    edges = [lo, *sorted({x for x in _cdf_kinks(F, G) if lo < x < hi}), hi]
    fc, gc = F.cdf_function(), G.cdf_function()  # quad keeps x in [lo, hi]
    f = lambda x: abs(fc(x) - gc(x))
    value, err = integrate_unit(edges, lambda k: f, tol)
    return _report(1.0, value, Method.CDF_INTEGRAL, err)


def _crossing(F: Distribution1D, G: Distribution1D) -> float | None:
    """Where two Normal or two Uniform laws of unequal scale cross, in
    standard units: the z with mu1 + sigma1 z = mu2 + sigma2 z, or the t
    with a1 + w1 t = a2 + w2 t (w a width); None for any other pair. The
    quantiles cross there at level Phi(z) or t, and the CDFs at the point
    mu1 + sigma1 z or a1 + w1 t."""
    if type(F) is type(G) is Normal and F.stddev != G.stddev:
        return (F.mean - G.mean) / (G.stddev - F.stddev)
    if type(F) is type(G) is Uniform:
        wf, wg = F.b - F.a, G.b - G.a
        if wf != wg:
            return (F.a - G.a) / (wg - wf)
    return None


def _cdf_kinks(F: Distribution1D, G: Distribution1D) -> list[float]:
    """Points where |F(x) - G(x)| may jump or kink, for a pair that is not
    atomic on both sides.

    Against atoms, on either side: the finite ends of the parametric law's
    support, the atoms y_0 < ... < y_n, and each point where the parametric
    law's CDF crosses the level c_k in (0, 1) that the atomic law reads on
    the gap (y_k, y_{k+1}): its quantile at c_k, when that lies strictly
    inside the gap. For two laws of one family: their _crossing, and a
    Uniform law's ends; without them quad misses w1_cdf's tolerance by up to
    1e-6 absolute. Laws of two families get none: their crossings are not
    known, and an end split off without the crossing can leave quad a cell
    that fools it."""
    if isinstance(F, Empirical):
        F, G = G, F
    if isinstance(G, Empirical):
        ys = G.locations
        xs = [F.quantile(c) if 0.0 < c < 1.0 else y for y, c in zip(ys, G.cumulative())]
        points = [*ys, *(x for y, x, z in zip(ys, xs, ys[1:]) if y < x < z)]
        if isinstance(F, Uniform):
            return [F.a, F.b, *points]
        return [0.0, *points] if isinstance(F, Exponential) else points
    s = _crossing(F, G)
    if type(F) is type(G) is Uniform:
        ends = [F.a, F.b, G.a, G.b]
        return ends if s is None else [*ends, F.a + (F.b - F.a) * s]
    return [] if s is None else [F.mean + F.stddev * s]


def _w1_cdf_empirical(F: Empirical, G: Empirical) -> float:
    """int |F - G| dx in one pass over both sorted location lists: between
    consecutive merged locations x < x' both distribution functions are
    constant, held as integer cumulative weights a and b over
    L = lcm(F.total, G.total). Each term |a - b| / L * (x' - x) divides
    first: the product overflows for atoms near 1e300 once L is large."""
    L = math.lcm(F.total, G.total)
    sf, sg = L // F.total, L // G.total
    xf = F.locations + (math.inf,)  # a sentinel past every finite location
    xg = G.locations + (math.inf,)
    nf, ng = F.nums, G.nums
    i = j = 0
    u, v = xf[0], xg[0]  # the next locations xf[i] and xg[j]
    a = b = 0  # F(x) and G(x), times L
    x = u if u < v else v
    terms = []
    while True:
        if u == x:
            a += nf[i] * sf
            i += 1
            u = xf[i]
        if v == x:
            b += ng[j] * sg
            j += 1
            v = xg[j]
        nxt = u if u < v else v
        if nxt == math.inf:
            return math.fsum(terms)
        terms.append(abs(a - b) / L * (nxt - x))
        x = nxt


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


def _atom_cells(G: Empirical):
    """(y, prev, c) for each atom y of G and its cell of levels (prev, c],
    on which G^{-1} is y."""
    levels = G.cumulative()
    return zip(G.locations, (0.0, *levels), levels)


def _closed_form_power(F: Distribution1D, G: Distribution1D, p: float) -> float | None:
    """W_p^p by closed-form cells, or None where a cell has none.

    Against an atomic law G, walk G's cells (_atom_cells): on each, F's
    cell integral against the atom is in closed form (a parametric law has
    no levels of its own). Two parametric laws of one family reduce to one
    law (_same_family_power)."""
    if isinstance(F, Empirical):
        F, G = G, F
    if not isinstance(G, Empirical):
        return _same_family_power(F, G, p)
    terms = []
    for y, prev, c in _atom_cells(G):
        cell = F.quantile_cell(prev, c, y, p)
        if cell is None:
            return None
        terms.append(cell)
    return math.fsum(terms)


def _kinks(F: Distribution1D, G: Distribution1D, p: float) -> list[float]:
    """Levels where F^{-1}(u) - G^{-1}(u) changes sign, for two parametric
    laws at p < 2: there |F^{-1} - G^{-1}|^p is not twice differentiable,
    and quad misses its tolerance (by up to 1e-4 relative at p = 1) unless
    the cell is split. At p >= 2 a split only makes a steeper cell end. The
    level is that of the _crossing of two Normal or two Uniform laws; other
    pairs give none. (Against an atomic law, _comonotone_power splits each
    atom's cell at its own crossing.)"""
    s = None if p >= 2.0 else _crossing(F, G)
    if s is None:
        return []
    level = 0.5 * math.erfc(-s / math.sqrt(2.0)) if isinstance(F, Normal) else s
    return [level] if 0.0 < level < 1.0 else []


def _comonotone_power(
    F: Distribution1D, G: Distribution1D, p: float, tol: float | None
) -> tuple[float, float]:
    """W_p^p along the comonotone coupling (F^{-1}(U), G^{-1}(U)) and its
    error estimate: for two atomic laws the fsum of m |x_i - y_j|^p over
    comonotone_cells, whose masses m come from the integer weights (error
    0.0), else quadrature of |F^{-1}(u) - G^{-1}(u)|^p to tol (None:
    DEFAULT_QUAD_TOL).

    Against an atomic G the quadrature walks G's cells (_atom_cells) and
    integrates |F^{-1}(u) - y|^p against each cell's own atom y, split
    where F(y) falls inside the cell: there the integrand kinks (p < 2) or
    falls to 0. integrate_unit also gets the integrand for arrays, through
    F.quantile_array, so quad's first step runs on all the cells at once.
    Two parametric laws split at _kinks. A cell that reaches an unbounded
    end of a law is a tail, integrated in t = -log u or t = -log(1 - u)
    through the laws' tail functions (_tail_gap), from the exact level it
    starts at; against atoms the top tail is _top_tail's. A first cell
    that reaches both unbounded ends splits at 1/2."""
    tol = quad_tol(tol)
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        xf, xg = F.locations, G.locations
        cells = comonotone_cells(F, G)
        return math.fsum([m * abs(xf[i] - xg[j]) ** p for i, j, m in cells]), 0.0
    if isinstance(F, Empirical):
        F, G = G, F
    if not isinstance(G, Empirical):
        below = F.unbounded_below or G.unbounded_below
        above = F.unbounded_above or G.unbounded_above
        edges = [0.0, *_kinks(F, G, p), 1.0]
        if below and above and len(edges) == 2:
            edges.insert(1, 0.5)
        fq, gq = F.quantile_function(), G.quantile_function()
        f = lambda u: abs(fq(u) - gq(u)) ** p
        lower = upper = None
        if below:
            gap = _tails_gap(F.lower_tail_function(), G.lower_tail_function(), p)
            lower = ([-math.log(edges[1])], gap)
        if above:
            gap = _tails_gap(F.upper_tail_function(), G.upper_tail_function(), p)
            upper = ([-math.log1p(-edges[-2])], gap)
        return integrate_unit(edges, lambda k: f, tol, lower=lower, upper=upper)
    edges, ys = [0.0], []  # cell k runs from edges[k] to edges[k + 1] against ys[k]
    fq, fc = F.quantile_function(), F.cdf_function()  # the atoms are finite
    for y, prev, c in _atom_cells(G):
        u = fc(y)
        for edge in (u, c) if prev < u < c else (c,):
            edges.append(edge)
            ys.append(y)
    top = None
    if F.unbounded_below and F.unbounded_above and edges[1] == 1.0:
        edges.insert(1, 0.5)
        ys.insert(0, ys[0])
        top = 0.5
    lower = upper = None
    if F.unbounded_below:
        lower = ([-math.log(edges[1])], _tail_gap(F.lower_tail_function(), ys[0], p))
    if F.unbounded_above:
        k, upper = _top_tail(F, G, edges, ys, p, top)
        del edges[k + 2 :], ys[k + 1 :]
    import numpy as np  # on first use, as for quad

    ys = np.array(ys)
    batch = lambda u, k: abs(F.quantile_array(u) - ys[k, None]) ** p
    integrand = lambda k: _quantile_gap(fq, float(ys[k]), p)
    return integrate_unit(edges, integrand, tol, batch, lower, upper)


def _top_tail(
    F: Distribution1D, G: Empirical, edges: list, ys: list, p: float, top: float | None
):
    """The top tail of F, unbounded above, against the atoms of G: (k,
    (ts, g)), with cell k the first whose level edges[k + 1] is 1.0.

    The tail takes cells k to the last, one atom each, so no other cell
    reaches F's unbounded end. Float levels cannot place the atoms after
    cell k's, whose levels all round to 1.0, but their exact survivals can:
    each atom starts at ts[i] = -log of its survival, the share of G's
    integer weight at and above it, and g reads the atom of its piece. Cell
    k starts at the survival top where it is given, else at F's own
    survival at its atom where the cell is the upper part of one split at
    F(y), else at its atom's own survival."""
    k = edges.index(1.0) - 1
    above = islice(accumulate(reversed(G.nums)), len(ys) - k)
    ts = [-math.log(n / G.total) for n in above][::-1]
    if top is None and k and ys[k - 1] == ys[k]:
        top = F.survival(ys[k])
    if top is not None:
        ts[0] = -math.log(top)
    tail, atoms = F.upper_tail_function(), ys[k:]
    if len(atoms) == 1:
        return k, (ts, _tail_gap(tail, atoms[0], p))
    return k, (ts, _tails_gap(tail, lambda t: atoms[bisect_right(ts, t) - 1], p))


def _quantile_gap(quantile, y: float, p: float):
    """u -> |quantile(u) - y|^p: the integrand where the other quantile is y."""
    return lambda u: abs(quantile(u) - y) ** p


def _tail_gap(tail, y: float, p: float):
    """t -> |tail(t) - y|^p e^-t: a tail cell's integrand in t, where the
    other quantile is y; e^-t is |du/dt|. The weight goes inside the power,
    as e^(-t/p), so the product stays finite far out in t."""
    return lambda t: (abs(tail(t) - y) * math.exp(-t / p)) ** p


def _tails_gap(tail, other, p: float):
    """_tail_gap against the other law's tail function."""
    return lambda t: (abs(tail(t) - other(t)) * math.exp(-t / p)) ** p


def wp_quantile(
    F: Distribution1D, G: Distribution1D, p: float, tol: float | None = None
) -> DistanceReport:
    """W_p^p as the quantile integral int_0^1 |F^{-1}(u) - G^{-1}(u)|^p du.

    A pair that is not atomic on both sides takes closed-form cells where
    every cell has one (error_estimate 0.0); every other pair is
    _comonotone_power, the computation wp_via_M makes."""
    check_order(p)
    quad_tol(tol)  # closed-form cells ignore tol, but a bad one is still an error
    if not (isinstance(F, Empirical) and isinstance(G, Empirical)):
        value = _closed_form_power(F, G, p)
        if value is not None:
            return _report(p, value, Method.QUANTILE_INTEGRAL, 0.0)
    value, err = _comonotone_power(F, G, p, tol)
    return _report(p, value, Method.QUANTILE_INTEGRAL, err)


def wp_via_M(
    F: Distribution1D, G: Distribution1D, p: float, tol: float | None = None
) -> DistanceReport:
    """W_p^p as the double integral of |x - y|^p against the joint CDF
    min(F(x), G(y)), evaluated along the comonotone coupling
    (_comonotone_power). It never takes wp_quantile's closed-form cells, so
    on a pair that has them it is their independent quadrature check."""
    check_order(p)
    value, err = _comonotone_power(F, G, p, tol)
    return _report(p, value, Method.COMONOTONE_COPULA_INTEGRAL, err)


def _coordinate_sums(
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
    p: float,
    tol: float | None,
) -> tuple[float, float]:
    """The fsums of the coordinatewise W_p^p values and of their error estimates."""
    nf, ng = len(marginsF), len(marginsG)
    if nf != ng or not nf:
        raise InputError(f"margin lists must be nonempty and of one length, got {nf} and {ng}")
    reports = [wp_quantile(Fi, Gi, p, tol) for Fi, Gi in zip(marginsF, marginsG)]
    return math.fsum(r.power_value for r in reports), math.fsum(r.error_estimate for r in reports)


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
    d = len(marginsF)
    if C is None:
        if d > 1:
            raise InputError(f"a shared copula is required for d >= 2, got {d} margins")
    elif C.dim != d:
        raise InputError(f"copula dim {C.dim} does not match margin count {d}")
    total, err = _coordinate_sums(marginsF, marginsG, p, tol)
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
    the sum of the one-dimensional powers bounds the joint power from below.
    Equality holds when the laws share a copula, and can hold without it:
    at p = 1 for the atoms (0, 0), (1, 1) against (2, 3), (3, 2), each of
    mass 1/2, whose copulas differ (at p = 2 the same pair gives 9 > 8).
    """
    return _coordinate_sums(marginsF, marginsG, p, tol)[0]


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
        raise InputError("p = q collapses the sandwich; use wp_shared_nd instead")
    base = wp_shared_nd(C, marginsF, marginsG, p, tol)
    d = len(marginsF)
    s = base.power_value
    factor = d ** (p / q - 1.0)
    bounds = (s, factor * s) if q < p else (factor * s, s)
    return _report(
        p, s, Method.SHARED_COPULA_SUM, base.error_estimate,
        q=float(q), bounds=bounds, copula=base.copula,
    )
