"""Exact optimal transport on finitely supported measures.

This is a correctness instrument, not a performance solver: masses are kept
exact, as integer numerators over a common denominator, so couplings satisfy
their margin constraints exactly, and the only floating-point error in a
reported value is cost evaluation. The solver is a transportation simplex
with Bland's rule (deterministic, terminates) that pivots on those integers,
with an assignment fast path for equal-count uniform-mass instances and an
exhaustive permutation oracle for tiny ones. It imports none of the formulas
it certifies; the acceptance rules that compare the two live in
wassercop.verify.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Callable, Sequence

from .distributions import Empirical, merge_atoms

DEFAULT_ATOM_CAP = 64
_MAX_PIVOTS = 100_000

Cost = Callable[[tuple[float, ...], tuple[float, ...]], float]


def power_cost(p: float) -> Cost:
    """|x - y|^p summed over coordinates: the p-norm cost to the p-th power."""
    return lambda x, y: math.fsum(abs(a - b) ** p for a, b in zip(x, y))


def norm_cost(p: float, q: float) -> Cost:
    """(q-norm of x - y)^p, the integrand of the W_{p,q} power."""

    def c(x, y):
        return math.fsum(abs(a - b) ** q for a, b in zip(x, y)) ** (p / q)

    return c


class DiscreteMeasureND:
    """Finitely supported probability measure on R^d with rational masses:
    sorted atoms with coprime integer numerators nums over their sum total."""

    def __init__(self, atoms: Sequence[tuple[Sequence[float], object]]):
        checked, masses = [], []
        for loc, mass in atoms:
            loc = tuple(float(c) for c in loc)
            if any(not math.isfinite(c) for c in loc):
                raise ValueError("atom locations must be finite")
            if checked and len(loc) != len(checked[0]):
                raise ValueError("all atoms must share a dimension")
            checked.append(loc)
            masses.append(mass)
        locs, nums, total = merge_atoms(checked, masses)
        self.locations: tuple[tuple[float, ...], ...] = tuple(locs)
        self.nums: tuple[int, ...] = tuple(nums)
        self.total = total
        self.dim = len(locs[0])

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        """Exact masses nums / total, built on first use."""
        return tuple(Fraction(n, self.total) for n in self.nums)

    @classmethod
    def from_empirical(cls, d: Empirical) -> "DiscreteMeasureND":
        return cls([((x,), n) for x, n in zip(d.locations, d.nums)])

    def margin(self, i: int) -> Empirical:
        """i-th coordinate margin as a one-dimensional empirical law."""
        return Empirical((loc[i], n) for loc, n in zip(self.locations, self.nums))

    def __len__(self):
        return len(self.locations)


@dataclass
class DiscreteCoupling:
    """Joint measure with the source and target as its margins."""

    entries: tuple[tuple[int, int, Fraction], ...]
    source: DiscreteMeasureND
    target: DiscreteMeasureND

    def validate(self) -> None:
        row = [Fraction(0)] * len(self.source)
        col = [Fraction(0)] * len(self.target)
        for i, j, m in self.entries:
            if m < 0:
                raise ValueError("coupling masses must be nonnegative")
            row[i] += m
            col[j] += m
        if tuple(row) != self.source.masses or tuple(col) != self.target.masses:
            raise ValueError("coupling margins do not match the prescribed measures")

    def to_dict(self) -> dict:
        return {
            "source_atoms": [list(x) for x in self.source.locations],
            "target_atoms": [list(y) for y in self.target.locations],
            "entries": [
                {"i": i, "j": j, "mass": float(m)} for i, j, m in self.entries
            ],
        }


def _cost_matrix(mu: DiscreteMeasureND, nu: DiscreteMeasureND, cost: Cost) -> list[list[float]]:
    rows = []
    for x in mu.locations:
        r = []
        for y in nu.locations:
            c = cost(x, y)
            if not math.isfinite(c):
                # an infinite cost of finite atoms is an overflow
                error = ValueError if math.isnan(c) else OverflowError
                raise error(f"cost is not finite at ({x}, {y})")
            r.append(c)
        rows.append(r)
    return rows


def _northwest_corner(a: Sequence[int], b: Sequence[int]) -> dict[tuple[int, int], int]:
    # walks from (0,0) to (m-1,n-1) one step at a time, so exactly
    # m + n - 1 basic cells (some possibly zero: degenerate basis)
    rem_a, rem_b = list(a), list(b)
    m, n = len(a), len(b)
    i = j = 0
    basis: dict[tuple[int, int], int] = {}
    while True:
        t = min(rem_a[i], rem_b[j])
        basis[(i, j)] = t
        rem_a[i] -= t
        rem_b[j] -= t
        if i == m - 1 and j == n - 1:
            return basis
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1


def _transportation_simplex(
    a: Sequence[int], b: Sequence[int], cost: list[list[float]]
) -> dict[tuple[int, int], int]:
    """Optimal basis for integer supplies a and demands b of equal sum.

    The basis is a spanning tree on m row nodes 0..m-1 and n column nodes
    m..m+n-1. Each pivot walks it once from row 0 for the duals (u[i] is
    pot[i], v[j] is pot[m + j]) and each node's parent and depth.
    """
    m, n = len(a), len(b)
    basis = _northwest_corner(a, b)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    scale = max(1.0, max(abs(c) for row in cost for c in row))
    tol = 1e-12 * scale
    for _ in range(_MAX_PIVOTS):
        pot = [0.0] * (m + n)
        parent = [0] * (m + n)
        depth = [0] * (m + n)
        stack = [0]
        while stack:
            k = stack.pop()
            for nb in adj[k]:
                if nb != parent[k]:
                    parent[nb], depth[nb] = k, depth[k] + 1
                    pot[nb] = cost[k][nb - m] - pot[k] if k < m else cost[nb][k - m] - pot[k]
                    stack.append(nb)
        u, v = pot[:m], pot[m:]
        enter = None
        for i in range(m):  # Bland: first improving cell in row-major order
            for j in range(n):
                if (i, j) not in basis and cost[i][j] - u[i] - v[j] < -tol:
                    enter = (i, j)
                    break
            if enter:
                break
        if enter is None:
            return basis
        # the tree path from row enter[0] up to the common ancestor and down
        # to column enter[1]; with the entering cell it closes the pivot cycle
        up, down = [], []
        s, t = enter[0], m + enter[1]
        while s != t:
            if depth[s] >= depth[t]:
                up.append(s)
                s = parent[s]
            else:
                down.append(t)
                t = parent[t]
        nodes = up + [s] + down[::-1]
        path = [(x, y - m) if x < m else (y, x - m) for x, y in zip(nodes, nodes[1:])]
        # entering cell takes +theta; signs alternate along the path,
        # starting with - on the edge sharing the entering row
        minus = path[0::2]
        theta = min(basis[c] for c in minus)
        leave = min(c for c in minus if basis[c] == theta)
        for k, c in enumerate(path):
            basis[c] += theta if k % 2 else -theta
        basis[enter] = theta
        del basis[leave]
        adj[enter[0]].append(m + enter[1])
        adj[m + enter[1]].append(enter[0])
        adj[leave[0]].remove(m + leave[1])
        adj[m + leave[1]].remove(leave[0])
    raise RuntimeError("transportation simplex failed to terminate")


def _equal_uniform(mu: DiscreteMeasureND, nu: DiscreteMeasureND) -> bool:
    # coprime numerators are all equal only when all are 1
    return len(mu) == len(nu) and all(n == 1 for n in mu.nums + nu.nums)


def solve_ot(
    mu: DiscreteMeasureND,
    nu: DiscreteMeasureND,
    cost: Cost,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> tuple[float, DiscreteCoupling]:
    """Minimize the expected cost over all couplings of mu and nu.

    Returns the optimal value and a feasible coupling attaining it. The
    witness is deterministic but not unique under cost ties; only the value
    is part of the contract.
    """
    if mu.dim != nu.dim:
        raise ValueError("measures must live on the same R^d")
    if len(mu) > atom_cap or len(nu) > atom_cap:
        raise ValueError(f"instance exceeds the atom cap of {atom_cap}")
    C = _cost_matrix(mu, nu, cost)
    if _equal_uniform(mu, nu):
        _, perm = _assignment_from_matrix(C)
        w = Fraction(1, len(mu))
        entries = tuple((i, j, w) for i, j in enumerate(perm))
    else:
        # pivot on integers: both measures scaled to the common denominator L
        L = math.lcm(mu.total, nu.total)
        basis = _transportation_simplex(
            [k * (L // mu.total) for k in mu.nums], [k * (L // nu.total) for k in nu.nums], C
        )
        entries = tuple(
            (i, j, Fraction(k, L)) for (i, j), k in sorted(basis.items()) if k > 0
        )
    value = math.fsum(float(m) * C[i][j] for i, j, m in entries)
    coupling = DiscreteCoupling(entries=entries, source=mu, target=nu)
    coupling.validate()
    return value, coupling


def _assignment_from_matrix(C: list[list[float]]) -> tuple[float, tuple[int, ...]]:
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(np.asarray(C))
    perm = [0] * len(C)
    for i, j in zip(rows, cols):
        perm[i] = int(j)
    value = math.fsum(C[i][perm[i]] for i in range(len(C))) / len(C)
    return value, tuple(perm)


def solve_assignment(
    mu: DiscreteMeasureND, nu: DiscreteMeasureND, cost: Cost
) -> tuple[float, tuple[int, ...]]:
    """Optimal coupling value for equal-count uniform-mass measures.

    At uniform masses the extreme points of the transportation polytope are
    permutation matrices, so the problem is an assignment problem; the value
    is (1/n) min over permutations of the pairing cost.
    """
    if not _equal_uniform(mu, nu):
        raise ValueError("assignment route needs equal atom counts with uniform masses")
    return _assignment_from_matrix(_cost_matrix(mu, nu, cost))


def brute_force_assignment(
    mu: DiscreteMeasureND, nu: DiscreteMeasureND, cost: Cost
) -> float:
    """Exhaustive minimum over all n! pairings; the oracle of the oracle (n small)."""
    if not _equal_uniform(mu, nu):
        raise ValueError("assignment route needs equal atom counts with uniform masses")
    n = len(mu)
    if n > 8:
        raise ValueError("exhaustive enumeration is limited to n <= 8")
    C = _cost_matrix(mu, nu, cost)
    return min(
        math.fsum(C[i][sigma[i]] for i in range(n)) for sigma in permutations(range(n))
    ) / n
