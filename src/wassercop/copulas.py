"""Copulas, Fréchet–Hoeffding bounds, Sklar assembly, comonotone couplings."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Sequence, Union

from .distributions import Distribution1D, Empirical, _check_u
from .grids import GridSpec, adaptive_quadrature, exact_breakpoints, integrate_unit, uniform_grid

FH_TOL = 1e-12
# midpoint cells of comonotone_coupling's default grid for a non-atomic pair
COUPLING_GRID_N = 1000


def _check_unit_vector(u: Sequence[float]) -> tuple[float, ...]:
    out = []
    for ui in u:
        ui = float(ui)
        if math.isnan(ui) or ui < 0.0 or ui > 1.0:
            raise ValueError(f"copula argument must lie in [0, 1], got {ui!r}")
        out.append(ui)
    if len(out) < 2:
        raise ValueError("copula arguments need dimension >= 2")
    return tuple(out)


def eval_M(u: Sequence[float]) -> float:
    """Upper Fréchet–Hoeffding bound min(u_1, ..., u_d); the comonotonicity copula."""
    return min(_check_unit_vector(u))


def eval_W(u: Sequence[float]) -> float:
    """Lower Fréchet–Hoeffding bound max(u_1 + ... + u_d - d + 1, 0)."""
    v = _check_unit_vector(u)
    return max(math.fsum(v) - len(v) + 1.0, 0.0)


@dataclass(frozen=True)
class Comonotone:
    """The comonotonicity copula M^d."""

    dim: int
    kind = "comonotone"
    is_copula = True

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("copula dimension must be >= 2")


@dataclass(frozen=True)
class LowerFH:
    """The lower Fréchet–Hoeffding function W^d; a copula only for d = 2.

    For d > 2 it is usable only as a bound, never as a dependence structure.
    """

    dim: int
    kind = "lower_fh"

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("copula dimension must be >= 2")

    @property
    def is_copula(self) -> bool:
        return self.dim == 2


class EmpiricalCopula:
    """Rank-based copula: C(u) = (1/n) #{rows r : r_i <= u_i for all i}."""

    kind = "empirical"
    is_copula = True

    def __init__(self, rows: Sequence[Sequence[float]]):
        if not rows:
            raise ValueError("empirical copula needs at least one row")
        dim = len(rows[0])
        if dim < 2:
            raise ValueError("copula dimension must be >= 2")
        clean = []
        for r in rows:
            if len(r) != dim:
                raise ValueError("all pseudo-observation rows must share one dimension")
            clean.append(_check_unit_vector(r))
        self.rows: tuple[tuple[float, ...], ...] = tuple(clean)
        self.dim = dim
        self.n = len(clean)

    @classmethod
    def from_data(cls, data: Sequence[Sequence[float]]) -> "EmpiricalCopula":
        """Rank-transform raw data rows into pseudo-observations (rank-1)/n.

        The downward shift keeps the step evaluator inside the
        Fréchet–Hoeffding bounds up to the 1/n discretization slack: the
        lower bound holds exactly and the upper one within 1/n, since every
        coordinate margin satisfies u <= margin(u) <= u + 1/n.
        """
        n = len(data)
        if n == 0:
            raise ValueError("need at least one data row")
        dim = len(data[0])
        cols = []
        for i in range(dim):
            col = [row[i] for row in data]
            order = sorted(range(n), key=lambda k: (col[k], k))
            ranks = [0] * n
            for r, k in enumerate(order):
                ranks[k] = r
            cols.append([r / n for r in ranks])
        return cls([tuple(cols[i][j] for i in range(dim)) for j in range(n)])

    def eval(self, u: Sequence[float]) -> float:
        u = _check_unit_vector(u)
        if len(u) != self.dim:
            raise ValueError("dimension mismatch")
        hits = sum(1 for r in self.rows if all(ri <= ui for ri, ui in zip(r, u)))
        return hits / self.n

    def __repr__(self):
        return f"EmpiricalCopula(n={self.n}, dim={self.dim})"


CopulaSpec = Union[Comonotone, LowerFH, EmpiricalCopula]


def eval_copula(c: CopulaSpec, u: Sequence[float]) -> float:
    u = _check_unit_vector(u)
    if len(u) != c.dim:
        raise ValueError(f"dimension mismatch: copula dim {c.dim}, argument dim {len(u)}")
    if isinstance(c, Comonotone):
        return eval_M(u)
    if isinstance(c, LowerFH):
        return eval_W(u)
    return c.eval(u)


@dataclass(frozen=True)
class FHCheck:
    lower: float
    value: float
    upper: float
    ok: bool


def frechet_hoeffding_check(
    c: CopulaSpec,
    u: Sequence[float],
    evaluator: Callable[[CopulaSpec, Sequence[float]], float] | None = None,
) -> FHCheck:
    """Check W^d(u) <= C(u) <= M^d(u) at u, with 1/n slack for empirical copulas.

    evaluator exists so a corrupted evaluation path can be checked against
    the bounds; it defaults to eval_copula.
    """
    lower = eval_W(u)
    upper = eval_M(u)
    value = (evaluator or eval_copula)(c, u)
    tol = FH_TOL + (1.0 / c.n if isinstance(c, EmpiricalCopula) else 0.0)
    ok = lower - tol <= value <= upper + tol
    return FHCheck(lower=lower, value=value, upper=upper, ok=ok)


def rectangle_volume(c: CopulaSpec, a: Sequence[float], b: Sequence[float]) -> float:
    """C-volume of the rectangle [a, b] via inclusion-exclusion over corners."""
    a = _check_unit_vector(a)
    b = _check_unit_vector(b)
    if len(a) != len(b):
        raise ValueError("rectangle corners must share a dimension")
    if any(ai > bi for ai, bi in zip(a, b)):
        raise ValueError("rectangle needs a_i <= b_i")
    total = 0.0
    for picks in product((0, 1), repeat=len(a)):
        corner = tuple(b[i] if s else a[i] for i, s in enumerate(picks))
        sign = -1.0 if (len(a) - sum(picks)) % 2 else 1.0
        total += sign * eval_copula(c, corner)
    return total


@dataclass(frozen=True)
class JointSpec:
    """Sklar assembly of a law on R^d: d margins plus one genuine copula."""

    margins: tuple[Distribution1D, ...]
    copula: CopulaSpec

    def __post_init__(self):
        if len(self.margins) != self.copula.dim:
            raise ValueError(
                f"margin count {len(self.margins)} does not match copula dim {self.copula.dim}"
            )
        if not self.copula.is_copula:
            raise ValueError("JointSpec requires a genuine copula (LowerFH with d > 2 is only a bound)")

    @property
    def dim(self) -> int:
        return self.copula.dim


def sklar_joint_cdf(j: JointSpec, x: Sequence[float]) -> float:
    """H(x) = C(F_1(x_1), ..., F_d(x_d))."""
    if len(x) != j.dim:
        raise ValueError("dimension mismatch")
    return eval_copula(j.copula, tuple(m.cdf(xi) for m, xi in zip(j.margins, x)))


def resolve_grid(
    F: Distribution1D, G: Distribution1D, grid: GridSpec | None
) -> GridSpec:
    """The grid for integrating over the comonotone coupling of F and G.

    By default two atomic laws use their exact merged breakpoints and any
    other pair adaptive quadrature; an explicit exact grid needs two atomic
    laws.
    """
    atomic = isinstance(F, Empirical) and isinstance(G, Empirical)
    if grid is None:
        return exact_breakpoints() if atomic else adaptive_quadrature()
    if grid.kind == "exact" and not atomic:
        raise ValueError("exact breakpoints require two empirical laws")
    return grid


def comonotone_cells(F: Empirical, G: Empirical) -> Iterator[tuple[int, int, float, float]]:
    """One pass over the staircases of two atomic laws.

    The cells are the intervals (prev, c] between consecutive distinct
    cumulative levels of either law; on each both quantile functions are
    constant. Per cell, in increasing order, yields (i, j, c, c - prev):
    the indices of the atoms of F and G whose level intervals contain the
    cell, its right end and its mass.
    """
    # a sentinel above every level: both laws end at exactly 1.0
    cf = F.cumulative() + (2.0,)
    cg = G.cumulative() + (2.0,)
    i = j = 0
    a, b = cf[0], cg[0]  # the current levels cf[i] and cg[j]
    prev = 0.0
    while prev < 1.0:
        c = a if a < b else b
        yield i, j, c, c - prev
        prev = c
        # step past every level <= c: distinct weights may round to one level
        while a <= c:
            i += 1
            a = cf[i]
        while b <= c:
            j += 1
            b = cg[j]


@dataclass(frozen=True)
class ComonotonePair:
    """Discrete or grid realization of the coupling (F^{-1}(U), G^{-1}(U)).

    atoms hold (x, y, mass) triples with float masses. On the breakpoint
    path u_grid holds the right ends of the cells, the merged float levels
    of both laws (exact weights, each level rounded once), so equal rational
    levels give one cell; on a uniform grid it holds the cell midpoints.
    Both coordinates are nondecreasing.
    """

    u_grid: tuple[float, ...]
    atoms: tuple[tuple[float, float, float], ...]
    exact: bool


def comonotone_coupling(
    F: Distribution1D, G: Distribution1D, grid: GridSpec | None = None
) -> ComonotonePair:
    """Couple F and G through a common uniform level.

    For two atomic laws the cells are those of comonotone_cells, one pass
    over both staircases (the north-west corner rule on sorted atoms),
    which realizes the coupling exactly with at most n_F + n_G - 1 atoms.
    Otherwise a grid on (0, 1) is used, by default COUPLING_GRID_N
    midpoint cells.
    """
    resolved = resolve_grid(F, G, grid)
    if grid is None and resolved.kind == "adaptive":
        resolved = uniform_grid(COUPLING_GRID_N)
    if resolved.kind == "exact":
        xf, xg = F.locations, G.locations
        u_grid, atoms = [], []
        for i, j, c, m in comonotone_cells(F, G):
            u_grid.append(c)
            atoms.append((xf[i], xg[j], m))
        return ComonotonePair(u_grid=tuple(u_grid), atoms=tuple(atoms), exact=True)
    if resolved.kind == "uniform":
        n = resolved.n
        us = tuple((k + 0.5) / n for k in range(n))
        atoms = tuple((F.quantile(u), G.quantile(u), 1.0 / n) for u in us)
        return ComonotonePair(u_grid=us, atoms=atoms, exact=False)
    raise ValueError("comonotone_coupling needs an exact or uniform grid; "
                     "use expect_comonotone for adaptive quadrature")


def expect_comonotone(
    F: Distribution1D,
    G: Distribution1D,
    g: Callable[[float, float], float],
    grid: GridSpec | None = None,
) -> tuple[float, float]:
    """E[g(X, Y)] under the comonotone coupling, as the integral
    of g(F^{-1}(u), G^{-1}(u)) over (0, 1). Returns (value, error_estimate);
    when both laws are atomic the value is an exact weighted sum over the
    cells of comonotone_cells and the error estimate is 0.0.
    """
    grid = resolve_grid(F, G, grid)
    if grid.kind == "exact":
        xf, xg = F.locations, G.locations
        terms = []
        for i, j, _, m in comonotone_cells(F, G):
            v = g(xf[i], xg[j])
            if not math.isfinite(v):
                # an infinite value of finite atoms is an overflow
                error = ValueError if math.isnan(v) else OverflowError
                raise error(f"integrand is not finite at ({xf[i]}, {xg[j]})")
            terms.append(m * v)
        return math.fsum(terms), 0.0
    breaks = F.cumulative_breakpoints() + G.cumulative_breakpoints()
    return integrate_unit(lambda u: g(F.quantile(u), G.quantile(u)), grid, breaks)


def shared_copula_build(
    C: CopulaSpec,
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
) -> tuple[JointSpec, JointSpec]:
    """Assemble two joint laws through one common copula object.

    Sharedness is enforced by construction: both JointSpecs reference the
    same CopulaSpec instance.
    """
    if len(marginsF) != len(marginsG):
        raise ValueError("margin lists must share a dimension")
    return JointSpec(tuple(marginsF), C), JointSpec(tuple(marginsG), C)


def discretize_joint(j: JointSpec) -> list[tuple[tuple[float, ...], Fraction]]:
    """n-atom realization of a joint law with an empirical copula.

    Row u_j of the copula maps to the atom (F_1^{-1}(u_{j,1}), ...,
    F_d^{-1}(u_{j,d})) with mass exactly 1/n.
    """
    if not isinstance(j.copula, EmpiricalCopula):
        raise ValueError("only joints with an empirical copula discretize to finitely many atoms")
    n = j.copula.n
    mass = Fraction(1, n)
    return [
        (tuple(m.quantile(u) for m, u in zip(j.margins, row)), mass)
        for row in j.copula.rows
    ]
