"""Empirical copulas, Fréchet–Hoeffding bounds, Sklar assembly, comonotone couplings."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .distributions import Distribution1D, Empirical
from .grids import InputError

# midpoint cells of comonotone_coupling for a non-atomic pair, by default
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


class EmpiricalCopula:
    """Rank-based copula: C(u) = (1/n) #{rows r : r_i <= u_i for all i}."""

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
        for row in data:
            if len(row) != dim:
                raise ValueError(f"data rows must share one length, got {dim} and {len(row)}")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"data values must be finite, got {tuple(row)!r}")
        cols = []
        for col in zip(*data):
            ranks = [0.0] * n
            # sorted is stable: tied values rank in row order
            for r, k in enumerate(sorted(range(n), key=col.__getitem__)):
                ranks[k] = r / n
            cols.append(ranks)
        return cls([tuple(col[j] for col in cols) for j in range(n)])

    def eval(self, u: Sequence[float]) -> float:
        u = _check_unit_vector(u)
        if len(u) != self.dim:
            raise ValueError(f"dimension mismatch: copula dim {self.dim}, argument dim {len(u)}")
        hits = sum(1 for r in self.rows if all(ri <= ui for ri, ui in zip(r, u)))
        return hits / self.n

    def __repr__(self):
        return f"EmpiricalCopula(n={self.n}, dim={self.dim})"


def comonotone_cells(F: Empirical, G: Empirical) -> Iterator[tuple[int, int, float]]:
    """The cells of the comonotone coupling of two atomic laws, in order.

    The north-west corner rule on the two sorted atom lists, in integers:
    both laws' weights scaled to the common denominator L = lcm(F.total,
    G.total), each cell takes the weight left in the current atoms of F
    and G, whichever is less. Yields (i, j, m) per cell: the indices of the
    two atoms and the cell's exact mass k / L, rounded once. No mass is a
    difference of float levels, so atoms whose levels round to one float
    still get their own cells.
    """
    L = math.lcm(F.total, G.total)
    sf, sg = L // F.total, L // G.total
    wf, wg = [m * sf for m in F.nums], [m * sg for m in G.nums]
    i = j = 0
    a, b = wf[0], wg[0]  # the weight left in atoms i and j
    while True:
        if a < b:
            yield i, j, a / L
            i, a, b = i + 1, wf[i + 1], b - a
        elif b < a:
            yield i, j, b / L
            j, a, b = j + 1, a - b, wg[j + 1]
        else:
            yield i, j, a / L
            if i + 1 == len(wf):  # both laws end here: their totals are L
                return
            i, j = i + 1, j + 1
            a, b = wf[i], wg[j]


@dataclass(frozen=True)
class ComonotonePair:
    """Discrete or grid realization of the coupling (F^{-1}(U), G^{-1}(U)).

    atoms hold (x, y, mass) triples with float masses, one per cell of
    comonotone_cells for two atomic laws, else one per equal cell at its
    midpoint. Both coordinates are nondecreasing.
    """

    atoms: tuple[tuple[float, float, float], ...]


def comonotone_coupling(
    F: Distribution1D, G: Distribution1D, n: int = COUPLING_GRID_N
) -> ComonotonePair:
    """Couple F and G through a common uniform level.

    For two atomic laws the atoms are the cells of comonotone_cells, each
    with its exact mass rounded once, which realize the coupling exactly
    with at most n_F + n_G - 1 atoms. Any other pair is discretized on
    n >= 2 equal cells at their midpoints.
    """
    if n < 2:
        raise InputError(f"comonotone_coupling needs n >= 2 cells, got {n!r}")
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        xf, xg = F.locations, G.locations
        return ComonotonePair(tuple((xf[i], xg[j], m) for i, j, m in comonotone_cells(F, G)))
    us = ((k + 0.5) / n for k in range(n))
    return ComonotonePair(tuple((F.quantile(u), G.quantile(u), 1.0 / n) for u in us))


def discretize_joint(
    C: EmpiricalCopula, margins: Sequence[Distribution1D]
) -> list[tuple[tuple[float, ...], Fraction]]:
    """n-atom Sklar assembly of the law with copula C and these margins.

    Row u_j of the copula maps to the atom (F_1^{-1}(u_{j,1}), ...,
    F_d^{-1}(u_{j,d})) with mass exactly 1/n. Two laws discretized on the
    same C share their copula by construction.
    """
    if len(margins) != C.dim:
        raise ValueError(f"margin count {len(margins)} does not match copula dim {C.dim}")
    mass = Fraction(1, C.n)
    return [(tuple(m.quantile(u) for m, u in zip(margins, row)), mass) for row in C.rows]
