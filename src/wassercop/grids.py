"""Integration grids on the unit interval (0, 1)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

# Parametric quantiles are clamped to [U_CLAMP, 1 - U_CLAMP], so quadrature
# skips the levels beyond the clamp. That is not always negligible: for a slow
# tail at p = 3, wp_via_M(Exponential(0.5), Empirical([(0, 3), (4, 1)]), 3)
# is 1.5e-7 below the closed form. ROADMAP item 2 plans tail cells in
# t = -log(1 - u) to close the gap.
U_CLAMP = 1e-12

DEFAULT_QUAD_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """How to evaluate an integral over (0, 1).

    kind is one of "exact" (merged staircase breakpoints, no discretization
    error; only valid when both inputs are purely atomic), "uniform"
    (midpoint rule on n equal cells) or "adaptive" (adaptive quadrature to
    tolerance tol).
    """

    kind: str
    n: int = 0
    tol: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exact", "uniform", "adaptive"):
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        if self.kind == "uniform" and self.n < 2:
            raise ValueError("uniform grid needs n >= 2")
        if self.kind == "adaptive" and not self.tol > 0:
            raise ValueError("adaptive grid needs tol > 0")


def exact_breakpoints() -> GridSpec:
    return GridSpec("exact")


def uniform_grid(n: int) -> GridSpec:
    return GridSpec("uniform", n=n)


def adaptive_quadrature(tol: float = DEFAULT_QUAD_TOL) -> GridSpec:
    return GridSpec("adaptive", tol=tol)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature stopped on a cell short of its tolerance."""


# a cell that quad stalls on is integrated again with breakpoints at these
# fractions of its width from either end
_GRADED = tuple(10.0**-k for k in range(1, 13))


def _quad(f, lo: float, hi: float, epsabs: float, epsrel: float, points=None):
    """quad's (value, error, message); with full_output it returns a failure
    message (None on success) in place of an IntegrationWarning."""
    import scipy.integrate as integrate

    value, err, _, *message = integrate.quad(
        f, lo, hi, epsabs=epsabs, epsrel=epsrel, points=points, full_output=1
    )
    return value, err, message[0] if message else None


def quad_cells(f: Callable[[float], float], edges: Sequence[float], tol: float) -> tuple[float, float]:
    """Integrate f over [edges[0], edges[-1]] with one adaptive quad per cell
    between consecutive edges, returning (value, error_estimate).

    Each cell gets the relative tolerance tol and its share of the absolute
    tolerance tol in proportion to its width; the error estimate is the sum
    of the cells' estimates. A cell that quad gives up on, typically one
    whose integrand steepens towards an end (a quantile near the 1e-12
    clamp), is integrated again graded geometrically towards both ends. If
    quad gives up on it again, QuadratureError is raised unless the summed
    estimate still meets tol, absolute or relative, for the whole integral.
    """
    span = edges[-1] - edges[0]
    values, errors = [], []
    failed = None
    for lo, hi in zip(edges, edges[1:]):
        epsabs = tol * (hi - lo) / span
        value, err, message = _quad(f, lo, hi, epsabs, tol)
        if message is not None:
            # no point so close to an end that floats cannot resolve the gap
            w, floor = hi - lo, U_CLAMP * max(1.0, abs(lo), abs(hi))
            pts = sorted({x for g in _GRADED if w * g > floor for x in (lo + w * g, hi - w * g)})
            value, err, message = _quad(f, lo, hi, epsabs, tol, pts or None)
        if message is not None and failed is None:
            failed = f"[{lo!r}, {hi!r}]: " + " ".join(message.split(".")[0].split())
        values.append(value)
        errors.append(err)
    value, err = math.fsum(values), math.fsum(errors)
    if failed is not None and not err <= tol * max(1.0, abs(value)):
        raise QuadratureError(f"quadrature failed on the cell {failed}")
    return value, err


def _midpoint_sum(f: Callable[[float], float], n: int) -> float:
    h = 1.0 / n
    return h * math.fsum(f((k + 0.5) * h) for k in range(n))


def integrate_unit(
    f: Callable[[float], float],
    grid: GridSpec,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate f over (0, 1), returning (value, error_estimate).

    breakpoints are interior points where f may jump or kink (cumulative
    weights of atomic inputs, sign changes of a difference); the adaptive
    rule integrates each cell between them on its own (quad_cells).
    """
    if grid.kind == "uniform":
        coarse = _midpoint_sum(f, max(2, grid.n // 2))
        fine = _midpoint_sum(f, grid.n)
        return fine, abs(fine - coarse)
    if grid.kind == "adaptive":
        pts = sorted({b for b in breakpoints if U_CLAMP < b < 1.0 - U_CLAMP})
        return quad_cells(f, [U_CLAMP, *pts, 1.0 - U_CLAMP], grid.tol)
    raise ValueError("exact grids carry no quadrature rule; handled by callers")
