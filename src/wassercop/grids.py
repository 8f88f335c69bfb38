"""Integration grids on the unit interval (0, 1)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

# Parametric quantiles are clamped to [U_CLAMP, 1 - U_CLAMP]; atoms carry no
# mass at the clamp, so integrals over (0, 1) are unaffected at the tolerances
# used anywhere in this package.
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


def _midpoint_sum(f: Callable[[float], float], n: int) -> float:
    h = 1.0 / n
    return h * math.fsum(f((k + 0.5) * h) for k in range(n))


def integrate_unit(
    f: Callable[[float], float],
    grid: GridSpec,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate f over (0, 1), returning (value, error_estimate).

    breakpoints are interior points where f may jump (cumulative weights of
    atomic inputs); the adaptive rule subdivides there.
    """
    if grid.kind == "uniform":
        coarse = _midpoint_sum(f, max(2, grid.n // 2))
        fine = _midpoint_sum(f, grid.n)
        return fine, abs(fine - coarse)
    if grid.kind == "adaptive":
        import scipy.integrate as integrate

        pts = sorted({b for b in breakpoints if U_CLAMP < b < 1.0 - U_CLAMP})
        value, err = integrate.quad(
            f,
            U_CLAMP,
            1.0 - U_CLAMP,
            points=pts or None,
            epsabs=grid.tol,
            epsrel=grid.tol,
            limit=200,
        )
        return value, err
    raise ValueError("exact grids carry no quadrature rule; handled by callers")
