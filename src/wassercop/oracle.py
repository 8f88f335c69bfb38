"""Exact optimal transport on finitely supported measures.

This is a correctness instrument, not a performance solver: masses are kept
exact, as integer numerators over a common denominator, so couplings satisfy
their margin constraints exactly, and the only floating-point error in a
reported value is cost evaluation (one NormCost matrix, built a row at a
time). The solver is a transportation simplex that pivots on those integers.
It prices a row at a time and stops at the first row with an improving cell,
whose most negative cell enters; right after a degenerate pivot Bland's
first improving cell enters instead, so it is deterministic and terminates.
After a pivot it re-walks only the subtree of the basis tree that the
leaving edge cut off, and re-prices a row that had no improving cell only in
the columns whose duals moved. There is an assignment fast path for
equal-count uniform-mass instances and an exhaustive permutation oracle for
tiny ones. It imports none of the formulas it certifies; the acceptance
rules that compare the two live in wassercop.verify.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

# InputError by way of distributions: the oracle imports no other module
from .distributions import Empirical, InputError, check_order, merge_atoms

DEFAULT_ATOM_CAP = 64
_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class NormCost:
    """(q-norm of x - y)^p: the cost of W_{p,q}, and at q = p the p-norm cost
    to the p-th power, |x - y|^p summed over coordinates."""

    p: float
    q: float

    def __post_init__(self):
        check_order(self.p)
        check_order(self.q, "q")

    def matrix(
        self, xs: Sequence[tuple[float, ...]], ys: Sequence[tuple[float, ...]]
    ) -> list[list[float]]:
        """The cost of every pair: row i, column j is the fsum over
        coordinates of |xs[i][k] - ys[j][k]|^q, to the power p / q when
        p != q. Built a row at a time from one list per coordinate."""
        q, r = self.q, self.p / self.q
        columns = list(zip(*ys))
        rows = []
        for x in xs:
            terms = [[abs(a - b) ** q for b in col] for a, col in zip(x, columns)]
            row = terms[0] if len(terms) == 1 else list(map(math.fsum, zip(*terms)))
            rows.append(row if self.p == q else [s ** r for s in row])
        return rows


def power_cost(p: float) -> NormCost:
    """|x - y|^p summed over coordinates: the p-norm cost to the p-th power."""
    return NormCost(p, p)


class DiscreteMeasureND:
    """Finitely supported probability measure on R^d with rational masses:
    sorted atoms with coprime integer numerators nums over their sum total."""

    def __init__(self, atoms: Sequence[tuple[Sequence[float], object]]):
        checked, masses = [], []
        for loc, mass in atoms:
            loc = tuple(float(c) + 0.0 for c in loc)  # + 0.0 maps -0.0 to 0.0
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
        """Margins checked exactly, as integers over one common denominator."""
        mu, nu = self.source, self.target
        L = math.lcm(mu.total, nu.total, *(m.denominator for _, _, m in self.entries))
        row, col = [0] * len(mu), [0] * len(nu)
        for i, j, m in self.entries:
            k = m.numerator * (L // m.denominator)
            if k < 0:
                raise ValueError("coupling masses must be nonnegative")
            row[i] += k
            col[j] += k
        want_row = [k * (L // mu.total) for k in mu.nums]
        want_col = [k * (L // nu.total) for k in nu.nums]
        if row != want_row or col != want_col:
            raise ValueError("coupling margins do not match the prescribed measures")

    def to_dict(self) -> dict:
        return {
            "source_atoms": [list(x) for x in self.source.locations],
            "target_atoms": [list(y) for y in self.target.locations],
            "entries": [
                {"i": i, "j": j, "mass": float(m)} for i, j, m in self.entries
            ],
        }


def _cost_matrix(
    mu: DiscreteMeasureND, nu: DiscreteMeasureND, cost: NormCost
) -> list[list[float]]:
    rows = cost.matrix(mu.locations, nu.locations)
    for x, row in zip(mu.locations, rows):
        # cell by cell: a row of finite cells can sum past the float range
        if not all(map(math.isfinite, row)):
            # an infinite cost of finite atoms is an overflow
            y = nu.locations[list(map(math.isfinite, row)).index(False)]
            raise OverflowError(f"cost is not finite at ({x}, {y})")
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
) -> tuple[dict[tuple[int, int], int], list[float], list[float]]:
    """Optimal basis and its duals u, v for integer supplies a and demands b
    of equal sum.

    The basis is a spanning tree on m row nodes 0..m-1 and n column nodes
    m..m+n-1, rooted at row 0. Each node keeps its parent, its depth and
    its dual (u[i] is pot[i], v[j] is pot[m + j]), the cost of the edge to
    its parent minus the parent's dual. Pricing is block search with a block
    of one row (Bonneel et al., SIGGRAPH Asia 2011): the scan stops at the
    first row with an improving cell, and that row's most negative cell
    enters, the first column on ties. Right after a degenerate pivot
    (theta = 0) Bland's cell enters instead, the first improving cell in
    row-major order. This terminates: a nondegenerate pivot lowers the
    cost, so a cycle of bases would be a run of degenerate pivots, each
    right after a degenerate pivot and so Bland's; and Bland's pivots from
    any basis cannot cycle (Bland, Math. Oper. Res. 2, 1977).

    A pivot cuts the subtree below the leaving edge off the tree and hangs
    it from the entering edge, so only that subtree is walked again; every
    other dual keeps its tree path, and so its value, bitwise. A row that
    had no improving cell at the last duals, and whose own dual did not
    move, is re-priced only in the columns whose duals moved. The duals
    returned are those of the final basis, bitwise as a whole walk from
    row 0 gives them.
    """
    m, n = len(a), len(b)
    basis = _northwest_corner(a, b)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    scale = max(1.0, *(max(map(abs, row)) for row in cost))
    tol = 1e-12 * scale
    pot = [0.0] * (m + n)
    parent = [0] * (m + n)
    depth = [0] * (m + n)

    def walk(top: int) -> list[int]:
        # the subtree below top, whose parent, depth and dual are set
        nodes = [top]
        for k in nodes:
            pk, dk, uk = parent[k], depth[k] + 1, pot[k]
            for nb in adj[k]:
                if nb != pk:
                    parent[nb], depth[nb] = k, dk
                    pot[nb] = (cost[k][nb - m] if k < m else cost[nb][k - m]) - uk
                    nodes.append(nb)
        return nodes

    walk(0)
    # clean[i]: row i was priced at the last duals and had no improving cell
    clean = [False] * m
    moved: list[int] = []  # the columns whose duals the last pivot moved, sorted
    bland = False  # the last pivot was degenerate
    for _ in range(_MAX_PIVOTS):
        v = pot[m:]
        # A basic cell's reduced cost is 0 to within an ulp of its duals, far
        # inside tol, so it never enters. In a clean row only a moved column
        # can have become improving, so the row's first improving cell and
        # its most negative one are both among the moved columns.
        for i, row in enumerate(cost):
            ui = pot[i]
            if clean[i]:
                reduced = [row[j] - ui - v[j] for j in moved]
            else:
                reduced = [c - ui - x for c, x in zip(row, v)]
            low = min(reduced) if reduced else 0.0  # empty when no column moved
            if low < -tol:
                if bland:  # right after a degenerate pivot: Bland's cell
                    k = next(k for k, r in enumerate(reduced) if r < -tol)
                else:  # the row's most negative cell, the first on ties
                    k = reduced.index(low)
                j = moved[k] if clean[i] else k
                break
            clean[i] = True
        else:
            return basis, pot[:m], pot[m:]
        clean[i:] = [False] * (m - i)
        # the tree path from row i up to the common ancestor and down to
        # column j; with the entering cell it closes the pivot cycle
        up, down = [], []
        s, t = i, m + j
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
        bland = theta == 0
        for k, c in enumerate(path):
            basis[c] += theta if k % 2 else -theta
        basis[i, j] = theta
        del basis[leave]
        adj[i].append(m + j)
        adj[m + j].append(i)
        adj[leave[0]].remove(m + leave[1])
        adj[m + leave[1]].remove(leave[0])
        # the leaving edge cuts off the subtree below its child end: on the
        # up chain that subtree holds the entering row, else its column
        top, anchor = (i, m + j) if path.index(leave) < len(up) else (m + j, i)
        parent[top], depth[top] = anchor, depth[anchor] + 1
        pot[top] = cost[i][j] - pot[anchor]
        moved = []
        for k in sorted(walk(top)):
            if k < m:
                clean[k] = False
            else:
                moved.append(k - m)
    raise RuntimeError("transportation simplex failed to terminate")


def _equal_uniform(mu: DiscreteMeasureND, nu: DiscreteMeasureND) -> bool:
    # coprime numerators are all equal only when all are 1
    return len(mu) == len(nu) and all(n == 1 for n in mu.nums + nu.nums)


def solve_ot(
    mu: DiscreteMeasureND,
    nu: DiscreteMeasureND,
    cost: NormCost,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> tuple[float, DiscreteCoupling]:
    """Minimize the expected cost over all couplings of mu and nu.

    Returns the optimal value and a feasible coupling attaining it. The
    witness is deterministic but not unique under cost ties; only the value
    is part of the contract.
    """
    if mu.dim != nu.dim:
        raise InputError("measures must live on the same R^d")
    if atom_cap < 1:
        raise InputError(f"atom cap must be >= 1, got {atom_cap!r}")
    if len(mu) > atom_cap or len(nu) > atom_cap:
        raise ValueError(f"instance exceeds the atom cap of {atom_cap}")
    C = _cost_matrix(mu, nu, cost)
    # both measures scaled to integers over the common denominator L; at
    # equal uniform masses L = n and each assigned cell holds 1
    L = math.lcm(mu.total, nu.total)
    if _equal_uniform(mu, nu):
        basis = _assignment_basis(C)
    else:
        basis, _, _ = _transportation_simplex(
            [k * (L // mu.total) for k in mu.nums], [k * (L // nu.total) for k in nu.nums], C
        )
    entries = tuple((i, j, Fraction(k, L)) for (i, j), k in sorted(basis.items()) if k > 0)
    value = math.fsum(float(m) * C[i][j] for i, j, m in entries)
    coupling = DiscreteCoupling(entries=entries, source=mu, target=nu)
    coupling.validate()
    return value, coupling


def _assignment_basis(C: list[list[float]]) -> dict[tuple[int, int], int]:
    """The optimal permutation as a basis, mass 1 on each cell (i, perm[i]):
    at uniform masses the extreme points of the transportation polytope are
    permutation matrices, so the problem is an assignment problem."""
    from scipy.optimize import linear_sum_assignment

    return {(int(i), int(j)): 1 for i, j in zip(*linear_sum_assignment(C))}


def brute_force_assignment(
    mu: DiscreteMeasureND, nu: DiscreteMeasureND, cost: NormCost
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
