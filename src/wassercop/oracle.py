"""Exact optimal transport on finitely supported measures.

This is a correctness instrument, not a performance solver: masses are kept
as exact rationals so couplings satisfy their margin constraints exactly,
and the only floating-point error in a reported value is cost evaluation.
The solver is a transportation simplex with Bland's rule (deterministic,
terminates), with an assignment fast path for equal-count uniform-mass
instances and an exhaustive permutation oracle for tiny ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Sequence

from .copulas import EmpiricalCopula, discretize_joint, shared_copula_build
from .distributions import Distribution1D, Empirical, merge_atoms
from .wasserstein import wp_lower_bound_nd, wp_quantile, wp_shared_nd, wpq_bounds

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
    """Finitely supported probability measure on R^d with rational masses."""

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
        self.masses: tuple[Fraction, ...] = tuple(Fraction(n, total) for n in nums)
        self.dim = len(locs[0])

    @classmethod
    def from_empirical(cls, d: Empirical) -> "DiscreteMeasureND":
        return cls([((x,), w) for x, w in zip(d.locations, d.weights)])

    def margin(self, i: int) -> Empirical:
        """i-th coordinate margin as a one-dimensional empirical law."""
        return Empirical((loc[i], m) for loc, m in zip(self.locations, self.masses))

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
                raise ValueError(f"cost is not finite at ({x}, {y})")
            r.append(c)
        rows.append(r)
    return rows


def _northwest_corner(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> dict[tuple[int, int], Fraction]:
    # walks from (0,0) to (m-1,n-1) one step at a time, so exactly
    # m + n - 1 basic cells (some possibly zero: degenerate basis)
    rem_a, rem_b = list(a), list(b)
    m, n = len(a), len(b)
    i = j = 0
    basis: dict[tuple[int, int], Fraction] = {}
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


def _tree_duals(
    basis: dict[tuple[int, int], Fraction], cost: list[list[float]], m: int, n: int
) -> tuple[list[float], list[float]]:
    rows_adj: list[list[int]] = [[] for _ in range(m)]
    cols_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    u = [math.nan] * m
    v = [math.nan] * n
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        side, k = stack.pop()
        if side == "r":
            for j in rows_adj[k]:
                if math.isnan(v[j]):
                    v[j] = cost[k][j] - u[k]
                    stack.append(("c", j))
        else:
            for i in cols_adj[k]:
                if math.isnan(u[i]):
                    u[i] = cost[i][k] - v[k]
                    stack.append(("r", i))
    return u, v


def _basis_cycle(
    basis: dict[tuple[int, int], Fraction], enter: tuple[int, int], m: int, n: int
) -> list[tuple[int, int]]:
    # unique path in the basis tree from row node enter[0] to column node
    # enter[1]; together with the entering cell it closes the pivot cycle
    rows_adj: dict[int, list[int]] = {i: [] for i in range(m)}
    cols_adj: dict[int, list[int]] = {j: [] for j in range(n)}
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    start, goal = ("r", enter[0]), ("c", enter[1])
    parent: dict[tuple[str, int], tuple[str, int]] = {start: start}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        side, k = node
        nbrs = rows_adj[k] if side == "r" else cols_adj[k]
        other = "c" if side == "r" else "r"
        for nb in nbrs:
            nxt = (other, nb)
            if nxt not in parent:
                parent[nxt] = node
                stack.append(nxt)
    path_nodes = [goal]
    while path_nodes[-1] != start:
        path_nodes.append(parent[path_nodes[-1]])
    path_nodes.reverse()
    cells = []
    for a, b in zip(path_nodes, path_nodes[1:]):
        (sa, ka), (sb, kb) = a, b
        cells.append((ka, kb) if sa == "r" else (kb, ka))
    return cells


def _transportation_simplex(
    a: Sequence[Fraction], b: Sequence[Fraction], cost: list[list[float]]
) -> dict[tuple[int, int], Fraction]:
    m, n = len(a), len(b)
    basis = _northwest_corner(a, b)
    scale = max(1.0, max(abs(c) for row in cost for c in row))
    tol = 1e-12 * scale
    for _ in range(_MAX_PIVOTS):
        u, v = _tree_duals(basis, cost, m, n)
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
        path = _basis_cycle(basis, enter, m, n)
        # entering cell takes +theta; signs alternate along the path,
        # starting with - on the edge sharing the entering row
        minus = path[0::2]
        theta = min(basis[c] for c in minus)
        leave = min(c for c in minus if basis[c] == theta)
        basis[enter] = Fraction(0)
        for k, c in enumerate(path):
            basis[c] += theta if k % 2 else -theta
        basis[enter] += theta
        del basis[leave]
    raise RuntimeError("transportation simplex failed to terminate")


def _equal_uniform(mu: DiscreteMeasureND, nu: DiscreteMeasureND) -> bool:
    n = len(mu)
    if len(nu) != n:
        return False
    w = Fraction(1, n)
    return all(m == w for m in mu.masses) and all(m == w for m in nu.masses)


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
        basis = _transportation_simplex(mu.masses, nu.masses, C)
        entries = tuple(
            (i, j, m) for (i, j), m in sorted(basis.items()) if m > 0
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


@dataclass(frozen=True)
class VerifyReport:
    name: str
    lp_value: float
    formula_value: float
    gap: float
    passed: bool
    detail: str = ""


def verify_comonotone_optimal(
    F: Empirical, G: Empirical, p: float, formula_shift: float = 0.0
) -> VerifyReport:
    """Check that the quantile-integral power equals the LP minimum for |x-y|^p.

    formula_shift perturbs the formula side; it exists to prove the harness
    can fail.
    """
    lp, _ = solve_ot(
        DiscreteMeasureND.from_empirical(F),
        DiscreteMeasureND.from_empirical(G),
        power_cost(p),
    )
    formula = wp_quantile(F, G, p).power_value + formula_shift
    gap = abs(lp - formula)
    return VerifyReport(
        name="comonotone_optimal",
        lp_value=lp,
        formula_value=formula,
        gap=gap,
        passed=gap <= 1e-9 * max(1.0, lp),
    )


def _margins(mu: DiscreteMeasureND) -> list[Empirical]:
    return [mu.margin(i) for i in range(mu.dim)]


def _shared_discrete_pair(
    C: EmpiricalCopula,
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
) -> tuple[DiscreteMeasureND, DiscreteMeasureND]:
    jf, jg = shared_copula_build(C, marginsF, marginsG)
    return DiscreteMeasureND(discretize_joint(jf)), DiscreteMeasureND(discretize_joint(jg))


def verify_shared_copula_decomposition(
    C: EmpiricalCopula,
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
    p: float,
    formula_shift: float = 0.0,
) -> VerifyReport:
    """LP value on the shared-copula discretization vs the coordinatewise sum.

    Both sides are evaluated on the same n-atom construction: the margins of
    the discrete measures feed the one-dimensional quantile formula.
    """
    mu, nu = _shared_discrete_pair(C, marginsF, marginsG)
    lp, _ = solve_ot(mu, nu, power_cost(p))
    formula = wp_shared_nd(C, _margins(mu), _margins(nu), p).power_value + formula_shift
    gap = abs(lp - formula)
    return VerifyReport(
        name="shared_copula_decomposition",
        lp_value=lp,
        formula_value=formula,
        gap=gap,
        passed=gap <= 1e-9 * max(1.0, lp),
    )


def verify_projection_bound(
    mu: DiscreteMeasureND, nu: DiscreteMeasureND, p: float, formula_shift: float = 0.0
) -> VerifyReport:
    """LP value >= sum of coordinatewise one-dimensional powers, any margins.

    formula_shift perturbs the formula side, as in verify_comonotone_optimal.
    """
    lp, _ = solve_ot(mu, nu, power_cost(p))
    lower = wp_lower_bound_nd(_margins(mu), _margins(nu), p) + formula_shift
    gap = lower - lp
    return VerifyReport(
        name="projection_bound",
        lp_value=lp,
        formula_value=lower,
        gap=gap,
        passed=lp >= lower - 1e-10,
    )


def verify_wpq_sandwich(
    C: EmpiricalCopula,
    marginsF: Sequence[Distribution1D],
    marginsG: Sequence[Distribution1D],
    p: float,
    q: float,
    swap_constant: bool = False,
) -> VerifyReport:
    """Exact W_{p,q}^p on the shared-copula discretization lies in the sandwich.

    swap_constant builds the sandwich with d^{q/p-1} in place of d^{p/q-1};
    it exists to prove the harness can fail.
    """
    mu, nu = _shared_discrete_pair(C, marginsF, marginsG)
    lp, _ = solve_ot(mu, nu, norm_cost(p, q))
    report = wpq_bounds(C, _margins(mu), _margins(nu), p, q)
    lo, hi = report.bounds
    if swap_constant:
        s, wrong = report.power_value, mu.dim ** (q / p - 1.0)
        lo, hi = (s, wrong * s) if q < p else (wrong * s, s)
    inside = lo - 1e-10 <= lp <= hi + 1e-10
    gap = max(lo - lp, lp - hi)
    return VerifyReport(
        name="wpq_sandwich",
        lp_value=lp,
        formula_value=report.power_value,
        gap=gap,
        passed=inside,
        detail=f"bounds=({lo!r}, {hi!r})",
    )
