"""Adaptive quadrature on the unit interval (0, 1).

An integrand is called only inside its own cell. integrate_unit cuts the
cells to [U_CLAMP, 1 - U_CLAMP] first, so quantile integrands never see a
level beyond the clamp; the quadrature routes rely on that when they
evaluate the laws' unchecked quantile_function() (see distributions).
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

# Parametric quantiles are clamped to [U_CLAMP, 1 - U_CLAMP], so quadrature
# skips the levels beyond the clamp. That is not always negligible: for a slow
# tail at p = 3, wp_via_M(Exponential(0.5), Empirical([(0, 3), (4, 1)]), 3)
# is 1.5e-7 below the closed form. ROADMAP item 3 plans tail cells in
# t = -log(1 - u) to close the gap.
U_CLAMP = 1e-12

DEFAULT_QUAD_TOL = 1e-8

# a piece of a piecewise integrand: (f, lo, hi), f integrated over [lo, hi]
Cell = tuple[Callable[[float], float], float, float]


class InputError(ValueError):
    """A bad argument or input file, which the CLI exits 2 on. It lives
    here because every module that raises it can import grids."""


def quad_tol(tol: float | None, default: float = DEFAULT_QUAD_TOL) -> float:
    """The quadrature tolerance: tol, or default for None; it must be > 0."""
    if tol is None:
        return default
    if not tol > 0:
        raise InputError(f"quadrature tolerance must be > 0, got {tol!r}")
    return tol


class QuadratureError(ArithmeticError):
    """Adaptive quadrature stopped on a cell short of its tolerance."""


# a cell that quad stalls on is integrated again with breakpoints at these
# fractions of its width from either end
_GRADED = tuple(10.0**-k for k in range(1, 13))


def _quad(quad, f, lo: float, hi: float, epsabs: float, epsrel: float, points=None):
    """scipy's quad's (value, error, message); with full_output it returns a
    failure message (None on success) in place of an IntegrationWarning."""
    value, err, _, *message = quad(
        f, lo, hi, epsabs=epsabs, epsrel=epsrel, points=points, full_output=1
    )
    return value, err, message[0] if message else None


def quad_cells(cells: Sequence[Cell], tol: float) -> tuple[float, float]:
    """Integrate a piecewise integrand over [cells[0][1], cells[-1][2]],
    given as (f, lo, hi) cells in order, each hi the next cell's lo, with
    one adaptive quad of that cell's f per cell. Returns (value,
    error_estimate).

    Each cell gets the relative tolerance tol and its share of the absolute
    tolerance tol in proportion to its width; the error estimate is the sum
    of the cells' estimates. A cell that quad gives up on, typically one
    whose integrand steepens towards an end (a quantile near the 1e-12
    clamp), is integrated again graded geometrically towards both ends. If
    quad gives up on it again, QuadratureError is raised unless the summed
    estimate still meets tol, absolute or relative, for the whole integral.
    """
    import scipy.integrate as integrate  # on first use: atomic routes never load scipy

    quad = integrate.quad
    span = cells[-1][2] - cells[0][1]
    values, errors = [], []
    failed = None
    for f, lo, hi in cells:
        epsabs = tol * (hi - lo) / span
        value, err, message = _quad(quad, f, lo, hi, epsabs, tol)
        if message is not None:
            # no point so close to an end that floats cannot resolve the gap
            w, floor = hi - lo, U_CLAMP * max(1.0, abs(lo), abs(hi))
            pts = sorted({x for g in _GRADED if w * g > floor for x in (lo + w * g, hi - w * g)})
            value, err, message = _quad(quad, f, lo, hi, epsabs, tol, pts or None)
        if message is not None and failed is None:
            failed = f"[{lo!r}, {hi!r}]: " + " ".join(message.split(".")[0].split())
        values.append(value)
        errors.append(err)
    value, err = math.fsum(values), math.fsum(errors)
    if failed is not None and not err <= tol * max(1.0, abs(value)):
        raise QuadratureError(f"quadrature failed on the cell {failed}")
    return value, err


def integrate_unit(cells: Sequence[Cell], tol: float | None = None) -> tuple[float, float]:
    """Integrate a piecewise integrand over (0, 1) to tol (None:
    DEFAULT_QUAD_TOL), returning (value, error_estimate).

    cells are (f, lo, hi) in order that tile [0, 1], cut where the
    integrand may jump or kink (an atom's cell of levels, a sign change of
    a difference). They are cut to [U_CLAMP, 1 - U_CLAMP], and each is
    integrated on its own (quad_cells).
    """
    top = 1.0 - U_CLAMP
    cut = ((f, max(lo, U_CLAMP), min(hi, top)) for f, lo, hi in cells)
    return quad_cells([cell for cell in cut if cell[1] < cell[2]], quad_tol(tol))
