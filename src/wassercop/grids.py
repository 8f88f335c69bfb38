"""Adaptive quadrature of a piecewise integrand, cell by cell.

A piecewise integrand is integrated cell by cell with scipy's quad
(QUADPACK's dqagse: Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
1983), given by its sorted cell edges and integrand(k), the integrand of
cell k. It may come with the same integrand for arrays; then the first step
quad would take on each cell, one 21-point Gauss-Kronrod sum and
QUADPACK's test whether to stop there, runs for every cell in one numpy
pass, and quad takes only the cells that test does not accept.

quad calls an integrand only strictly inside its own cell, never at the
cell's ends. The first or the last cell of levels may instead be a tail,
which integrate_unit integrates in t = -log u or t = -log(1 - u) over
[t0, inf), with quad's infinite-interval rule (dqagie), from the integrand
of t that the caller gives, split where that integrand may jump. So the
cells cover (0, 1) to its ends, and grids knows nothing of the laws whose
quantiles the integrands read.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

DEFAULT_QUAD_TOL = 1e-8

# the integrand of cell k, integrated over [edges[k], edges[k + 1]]
Integrand = Callable[[int], Callable[[float], float]]
# a first or last cell taken in t, (ts, g): the integrand g of t over
# [ts[0], inf) that the cell's integral is taken as, split at ts[1:]
Tail = tuple[Sequence[float], Callable[[float], float]]
# the integrand of every cell for arrays: batch(u, k)[i, j] is the integrand
# of the cell with index k[i] at the level u[i, j]
Batch = Callable[["numpy.ndarray", "numpy.ndarray"], "numpy.ndarray"]


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


def _quad(quad, f, lo: float, hi: float, epsabs: float, epsrel: float):
    """scipy's quad's (value, error, message); with full_output it returns a
    failure message (None on success) in place of an IntegrationWarning."""
    value, err, _, *message = quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, full_output=1)
    return value, err, message[0] if message else None


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21): the Kronrod abscissae on
# [-1, 1] from the outermost in (the 2nd, 4th, ..., 10th are the 10-point
# Gauss abscissae; the 11th is the centre), their weights, and the Gauss
# weights of the 2nd, 4th, ..., 10th
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745599232, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651344,
)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


@functools.cache
def _rule():
    """The Kronrod abscissae, and the Kronrod and Gauss weights of the nodes
    in the order -x_1 ... -x_10, 0, x_1 ... x_10."""
    import numpy as np

    wk = np.array((*_WGK, *_WGK[:10]))
    wg = np.zeros(21)
    wg[1:10:2] = wg[12::2] = _WG
    return np.array(_XGK), wk, wg


def _kronrod_step(batch: Batch, edges: Sequence[float], tol: float):
    """The first step quad takes on every cell at once: dqk21's Kronrod sum
    and error estimate from one batch call at each cell's 21 nodes, and
    dqagse's test whether to stop there, with the tolerances integrate_unit
    gives each cell. Returns three arrays over the cells: whether the test
    accepts the cell, the sum and the error estimate. It accepts the cells
    on which quad stops after one subinterval with no message, to within
    the rounding of the integrand's array form and of the sums' order, and
    a cell of width 0 with 0.0, as quad gives it. Each sum is an einsum
    over its own row, so a cell's results do not depend on the other cells
    in the pass (a BLAS product blocks its sums by the row count)."""
    import numpy as np

    xgk, wk, wg = _rule()
    dot = functools.partial(np.einsum, "ij,j->i")
    edges = np.array(edges)
    lo, hi = edges[:-1], edges[1:]
    epsabs = tol * (hi - lo) / (edges[-1] - edges[0])
    centr, hlgth = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)
    absc = hlgth[:, None] * xgk
    nodes = np.hstack((centr - absc, centr, centr + absc))
    # an overflow or a nan leaves a cell's test false, and quad meets it again
    with np.errstate(all="ignore"):
        fv = batch(nodes, np.arange(len(lo)))
        resk, resg = dot(fv, wk), dot(fv, wg)
        resabs = dot(abs(fv), wk) * hlgth
        resasc = dot(abs(fv - 0.5 * resk[:, None]), wk) * hlgth
        result = resk * hlgth
        abserr = abs((resk - resg) * hlgth)
        shrink = np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0), resasc * shrink, abserr)
        floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
        abserr = np.maximum(floor, abserr)
        errbnd = np.maximum(epsabs, tol * abs(result))
        accept = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    # dqagse refuses a cell whose tolerances it cannot meet (ier = 6)
    accept &= (epsabs > 0.0) | (tol >= max(50.0 * _EPMACH, 5e-29))
    return accept, result, abserr


def integrate_unit(
    edges: Sequence[float],
    integrand: Integrand,
    tol: float,
    batch: Batch | None = None,
    lower: Tail | None = None,
    upper: Tail | None = None,
) -> tuple[float, float]:
    """Integrate a piecewise integrand over [edges[0], edges[-1]] to tol,
    given by its sorted cell edges and integrand(k), the integrand of the
    cell between edges[k] and edges[k + 1], with one adaptive quad per cell.
    Returns (value, error_estimate).

    The quantile routes pass levels from 0.0 to 1.0, cut where the
    integrand may jump or kink (an atom's cell of levels, a sign change of a
    difference); w1_cdf passes points x of its finite range. Each cell gets
    the relative tolerance tol and its share of the absolute tolerance tol
    in proportion to its width; the error estimate is the sum of the cells'
    estimates. Given batch, the same integrand for arrays, quad's first step
    runs on every cell at once (_kronrod_step): a cell that step accepts
    keeps its value and error, and only the others go to quad, so
    error_estimate means what it means without batch, and integrand(k) is
    called only for a cell that quad takes.

    lower, where a law is unbounded as u -> 0, is (ts, g): the first cell,
    levels [0, edges[1]], is integrated in t = -log u instead, as the
    integral of g(t) = integrand(0)(e^-t) e^-t over [t0, inf) (QUADPACK's
    dqagie), with t0 = ts[0] = -log edges[1]. upper, where a law is
    unbounded as u -> 1, likewise takes the last cell, levels
    [edges[-2], 1], in t = -log(1 - u), with t0 = -log(1 - edges[-2]). The
    caller computes t0 from the exact level it knows, which a rounded edge
    may not carry. Where g may jump beyond t0, ts goes on with those points,
    and quad takes each piece between them on its own, the last over
    [ts[-1], inf). Each piece gets the cell's share of the absolute
    tolerance.

    If quad gives up on a cell, QuadratureError, naming the first such cell
    by its edges, is raised unless the summed estimate still meets tol,
    absolute or relative, for the whole integral.
    """
    import scipy.integrate as integrate  # on first use: atomic routes never load scipy

    quad = integrate.quad
    span = edges[-1] - edges[0]
    last = len(edges) - 2
    values, errors, rest = [], [], range(last + 1)
    if batch is not None:
        accept, value, err = _kronrod_step(batch, edges, tol)
        # a tail is integrated in t, below
        accept[0] &= lower is None
        accept[last] &= upper is None
        values, errors = value[accept].tolist(), err[accept].tolist()
        rest = (~accept).nonzero()[0].tolist()
    failed = None
    for k in rest:
        lo, hi = edges[k], edges[k + 1]
        tail = lower if k == 0 and lower else upper if k == last else None
        if tail is None:
            f, pieces = integrand(k), [(lo, hi)]
        else:
            ts, f = tail
            pieces = zip(ts, [*ts[1:], math.inf])
        for a, b in pieces:
            value, err, message = _quad(quad, f, a, b, tol * (hi - lo) / span, tol)
            if message is not None and failed is None:
                failed = f"[{lo!r}, {hi!r}]: " + " ".join(message.split(".")[0].split())
            values.append(value)
            errors.append(err)
    value, err = math.fsum(values), math.fsum(errors)
    if failed is not None and not err <= tol * max(1.0, abs(value)):
        raise QuadratureError(f"quadrature failed on the cell {failed}")
    return value, err
