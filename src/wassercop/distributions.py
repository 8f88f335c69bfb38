"""One-dimensional probability laws with exact CDF and quantile evaluation.

Every law exposes the distribution function F and its generalized inverse
F^{-1}(u) = inf{x : F(x) >= u}. Atomic laws read exact integer weights
through correctly rounded float levels; parametric families use closed
forms, with the normal inverse CDF accurate to well below 1e-9. Each
parametric family also integrates |F^{-1}(u) - y|^p over a cell of levels
(quantile_cell) in closed form, by truncated moments: the 1-D closed forms
of Peyre & Cuturi, Computational Optimal Transport (2019), section 2.6.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from statistics import NormalDist
from typing import Iterable, Sequence

from .grids import U_CLAMP

# orders p at which the Normal and Exponential cells have a closed form
CELL_ORDERS = (1.0, 2.0, 3.0)
_U_TOP = 1.0 - U_CLAMP
_STANDARD_NORMAL = NormalDist()
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _require_finite(x: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def _check_u(u: float) -> float:
    u = float(u)
    if math.isnan(u) or u < 0.0 or u > 1.0:
        raise ValueError(f"probability level must lie in [0, 1], got {u!r}")
    return u


def check_order(p: float, name: str = "p") -> None:
    """Raise ValueError unless the order p is finite and >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"order {name} must be finite and >= 1, got {p!r}")


class Distribution1D:
    """Base class; subclasses implement cdf and quantile."""

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        raise NotImplementedError

    def quantile_cell(self, u0: float, u1: float, y: float, p: float) -> float | None:
        """int_{u0}^{u1} |F^{-1}(u) - y|^p du for 0 <= u0 <= u1 <= 1, or
        None where the law has no closed form at this order."""
        return None

    def cumulative_breakpoints(self) -> tuple[float, ...]:
        """Interior jump levels of the quantile staircase (empty if none)."""
        return ()


# weights of these types read out their own exact ratio; any other weight
# (a string such as "0.125" or "1/3") is parsed by Fraction
_SELF_RATIO = (int, float, Fraction)


def merge_atoms(locs: Sequence, weights: Sequence) -> tuple[list, list[int], int]:
    """Merge duplicate locations and normalise their weights exactly.

    locs and weights are parallel columns, one entry per atom. Each distinct
    weight is parsed once (a repeated one costs a dict lookup) and scaled to
    an integer over one common denominator. One sort by location then makes
    equal locations neighbours, which merge. Returns the sorted distinct
    locations, coprime numerators and their sum `total`.
    """
    if not locs:
        raise ValueError("need at least one atom")
    ratios: dict = {}
    parsed = []
    for w in weights:
        r = w.as_integer_ratio() if type(w) in _SELF_RATIO else ratios.get(w)
        if r is None:
            r = ratios[w] = Fraction(w).as_integer_ratio()
        parsed.append(r)
    n, d = min(parsed)
    if n <= 0:
        raise ValueError(f"atom weight must be positive, got {Fraction(n, d)}")
    den = math.lcm(*{d for _, d in parsed})
    ints = [n * (den // d) for n, d in parsed]
    order = sorted(range(len(locs)), key=locs.__getitem__)
    xs = list(map(locs.__getitem__, order))
    nums = list(map(ints.__getitem__, order))
    # equal neighbours are rare: look for them at C speed before merging
    if any(map(operator.eq, xs, xs[1:])):
        merged_xs, merged_nums = [xs[0]], [nums[0]]
        for x, m in zip(xs[1:], nums[1:]):
            if x == merged_xs[-1]:
                merged_nums[-1] += m
            else:
                merged_xs.append(x)
                merged_nums.append(m)
        xs, nums = merged_xs, merged_nums
    g = math.gcd(*nums)
    if g > 1:
        nums = [m // g for m in nums]
    return xs, nums, sum(nums)


class Empirical(Distribution1D):
    """Finitely supported law: sorted atoms with exact weights nums / total,
    read through float levels (cumulative weights, each rounded once)."""

    def __init__(self, atoms: Iterable[tuple[float, object]]):
        pairs = list(atoms)
        self._build([x for x, _ in pairs], [w for _, w in pairs])

    def _build(self, xs: Sequence, ws: Sequence) -> None:
        xs = list(map(float, xs))
        if not all(map(math.isfinite, xs)):
            bad = next(x for x in xs if not math.isfinite(x))
            raise ValueError(f"atom location must be finite, got {bad!r}")
        locs, nums, total = merge_atoms(xs, ws)
        self._locs: tuple[float, ...] = tuple(locs)
        self.nums: tuple[int, ...] = tuple(nums)
        self.total = total
        self._cum: tuple[float, ...] = tuple([c / total for c in accumulate(nums)])

    @property
    def locations(self) -> tuple[float, ...]:
        return self._locs

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """Exact weights nums / total, built on first use."""
        return tuple(Fraction(n, self.total) for n in self.nums)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple((x, n / self.total) for x, n in zip(self._locs, self.nums))

    def cumulative(self) -> tuple[float, ...]:
        return self._cum

    def cumulative_breakpoints(self) -> tuple[float, ...]:
        return self._cum[:-1]

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        k = bisect_right(self._locs, x)
        return self._cum[k - 1] if k else 0.0

    def quantile(self, u: float) -> float:
        # first index with cumulative weight >= u (levels are positive and the
        # last is exactly 1.0): the levels cdf() reports, so quantile(cdf(x)) <= x
        return self._locs[bisect_left(self._cum, _check_u(u))]

    def __eq__(self, other):
        return (
            isinstance(other, Empirical)
            and self._locs == other._locs
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self._locs, self.nums))

    def __repr__(self):
        return f"Empirical({list(self.atoms)})"


@dataclass(frozen=True)
class Uniform(Distribution1D):
    a: float
    b: float

    def __post_init__(self):
        _require_finite(self.a, "uniform lower bound")
        _require_finite(self.b, "uniform upper bound")
        if not self.a < self.b:
            raise ValueError("uniform law needs a < b")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"uniform width b - a overflows a float for [{self.a!r}, {self.b!r}]")

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        return self.a + u * (self.b - self.a)

    def quantile_cell(self, u0: float, u1: float, y: float, p: float) -> float:
        # x = a + w u runs over [x0, x1]: integrate |x - y|^p dx / w, any p
        w = self.b - self.a
        t0, t1 = self.a + w * u0 - y, self.a + w * u1 - y
        if t0 < 0.0 < t1:
            return (abs(t0) ** (p + 1) + t1 ** (p + 1)) / ((p + 1) * w)
        near, far = sorted((abs(t0), abs(t1)))
        if far == 0.0:
            return 0.0
        # far^(p+1) - near^(p+1), with near = far (1 - d) and d taken from
        # the cell's width: far - near would cancel when y is far away
        d = w * (u1 - u0) / far
        log_ratio = (p + 1) * math.log1p(-d) if d < 1.0 else -math.inf
        return far ** (p + 1) * -math.expm1(log_ratio) / ((p + 1) * w)


@dataclass(frozen=True)
class Normal(Distribution1D):
    mean: float
    stddev: float

    def __post_init__(self):
        _require_finite(self.mean, "normal mean")
        _require_finite(self.stddev, "normal stddev")
        if not self.stddev > 0:
            raise ValueError("normal law needs stddev > 0")

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        z = (x - self.mean) / (self.stddev * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    @cached_property
    def _dist(self) -> NormalDist:
        return NormalDist(self.mean, self.stddev)

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        if u < U_CLAMP:
            u = U_CLAMP
        elif u > _U_TOP:
            u = _U_TOP
        return self._dist.inv_cdf(u)

    def quantile_cell(self, u0: float, u1: float, y: float, p: float) -> float | None:
        if p not in CELL_ORDERS:
            return None
        # with u = Phi(z) the cell is stddev^p int_{z0}^{z1} |z - c|^p phi(z) dz
        k = int(p)
        c = (y - self.mean) / self.stddev
        zs = [_standard_z(u0), _standard_z(u1)]
        if k % 2 and zs[0] < c < zs[1]:  # the sign of z - c turns inside the cell
            zs.insert(1, c)
        pieces = (abs(_normal_moment(z0, z1, c, k)) for z0, z1 in zip(zs, zs[1:]))
        return self.stddev**k * math.fsum(pieces)


@dataclass(frozen=True)
class Exponential(Distribution1D):
    rate: float

    def __post_init__(self):
        _require_finite(self.rate, "exponential rate")
        if not self.rate > 0:
            raise ValueError("exponential law needs rate > 0")

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        if x < 0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        if u < U_CLAMP:
            u = U_CLAMP
        elif u > _U_TOP:
            u = _U_TOP
        return -math.log1p(-u) / self.rate

    def quantile_cell(self, u0: float, u1: float, y: float, p: float) -> float | None:
        if p not in CELL_ORDERS:
            return None
        # with t = -log(1 - u) the cell is rate^-p int_{t0}^{t1} |t - c|^p e^-t dt
        k = int(p)
        c = self.rate * y
        ends = [(u0, _exponential_t(u0))]
        uc = -math.expm1(-c) if c > 0.0 else 0.0  # F(y)
        if k % 2 and u0 < uc < u1:  # the sign of t - c turns inside the cell
            ends.append((uc, c))
        ends.append((u1, _exponential_t(u1)))
        pieces = (abs(_exponential_moment(lo, hi, c, k)) for lo, hi in zip(ends, ends[1:]))
        return math.fsum(pieces) / self.rate**k


def _standard_z(u: float) -> float:
    if u <= 0.0:
        return -math.inf
    return math.inf if u >= 1.0 else _STANDARD_NORMAL.inv_cdf(u)


def _normal_moment(z0: float, z1: float, c: float, k: int) -> float:
    """J_k = int_{z0}^{z1} (z - c)^k phi(z) dz by the recursion
    J_j = (j - 1) J_{j-2} - c J_{j-1} + (z0 - c)^{j-1} phi(z0) - (z1 - c)^{j-1} phi(z1);
    an infinite end adds no boundary term.

    J_0 is Phi(z1) - Phi(z0) of these z, not the levels' difference u1 - u0:
    the z carry the inverse CDF's rounding, about 1e-15, and only a J_0 that
    matches them cancels against the boundary terms on a narrow cell.
    """

    def edge(z: float, e: int) -> float:
        return 0.0 if math.isinf(z) else (z - c) ** e * math.exp(-0.5 * z * z) * _INV_SQRT_2PI

    # Phi by erfc from the nearer tail, so a tail cell keeps its digits
    r = 1.0 / math.sqrt(2.0)
    if z0 > 0.0:
        m = [0.5 * (math.erfc(z0 * r) - math.erfc(z1 * r))]
    else:
        m = [0.5 * (math.erfc(-z1 * r) - math.erfc(-z0 * r))]
    for j in range(1, k + 1):
        # at j = 1 the first term is 0 * m[-1]
        m.append((j - 1) * m[j - 2] - c * m[j - 1] + edge(z0, j - 1) - edge(z1, j - 1))
    return m[k]


def _exponential_t(u: float) -> float:
    return math.inf if u >= 1.0 else -math.log1p(-u)


def _exponential_moment(lo: tuple[float, float], hi: tuple[float, float], c: float, k: int) -> float:
    """L_k = int_{t0}^{t1} (t - c)^k e^-t dt between the ends (u0, t0) and
    (u1, t1), u = 1 - e^-t, by the partial-moment recursion L_j = j L_{j-1}
    + (t0 - c)^j (1 - u0) - (t1 - c)^j (1 - u1) from L_0 = u1 - u0; the
    survival 1 - u is 0 at an infinite end."""
    (u0, t0), (u1, t1) = lo, hi

    def edge(u: float, t: float, j: int) -> float:
        return 0.0 if u >= 1.0 else (t - c) ** j * (1.0 - u)

    m = u1 - u0
    for j in range(1, k + 1):
        m = j * m + edge(u0, t0, j) - edge(u1, t1, j)
    return m


def empirical_from_samples(xs: Sequence[float], ws: Sequence[object] | None = None) -> Empirical:
    """Build a canonical empirical law from samples and optional weights.

    Sorting, duplicate merging and normalization make the result independent
    of input order.
    """
    if len(xs) == 0:
        raise ValueError("need at least one sample")
    if ws is None:
        ws = [1] * len(xs)
    if len(ws) != len(xs):
        raise ValueError("weights must match samples in length")
    law = Empirical.__new__(Empirical)
    law._build(xs, ws)
    return law
