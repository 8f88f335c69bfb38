"""Empirical copulas, Fréchet–Hoeffding bounds, Sklar assembly, comonotone couplings."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
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

    atoms hold (x, y, mass) triples with float masses, one per cell of
    comonotone_cells for two atomic laws (its exact mass, rounded once),
    else one per equal cell at its midpoint. Both coordinates are
    nondecreasing.
    """

    atoms: tuple[tuple[float, float, float], ...]


def comonotone_coupling(
    F: Distribution1D, G: Distribution1D, n: int = COUPLING_GRID_N
) -> ComonotonePair:
    """Couple F and G through a common uniform level.

    For two atomic laws the cells are those of comonotone_cells, one pass
    over both staircases (the north-west corner rule on sorted atoms),
    which realizes the coupling exactly with at most n_F + n_G - 1 atoms.
    The cell of atoms i and j has the exact mass min(A_i, B_j) -
    max(A_{i-1}, B_{j-1}) over L, with A and B the laws' integer cumulative
    weights scaled to the common denominator L = lcm(F.total, G.total), so
    each mass is rounded once (the float levels' difference c - prev is
    not: 0.04999999999999999 for 1/20). Any other pair is discretized on
    n >= 2 equal cells at their midpoints.
    """
    if n < 2:
        raise InputError(f"comonotone_coupling needs n >= 2 cells, got {n!r}")
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        xf, xg = F.locations, G.locations
        L = math.lcm(F.total, G.total)
        # A[i + 1] and B[j + 1] end the level intervals of atoms i and j
        sf, sg = L // F.total, L // G.total
        A = [0, *accumulate(m * sf for m in F.nums)]
        B = [0, *accumulate(m * sg for m in G.nums)]
        return ComonotonePair(tuple(
            (xf[i], xg[j], (min(A[i + 1], B[j + 1]) - max(A[i], B[j])) / L)
            for i, j, _, _ in comonotone_cells(F, G)
        ))
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
