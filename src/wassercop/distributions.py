"""One-dimensional probability laws with exact CDF and quantile evaluation.

Every law exposes the distribution function F and its generalized inverse
F^{-1}(u) = inf{x : F(x) >= u}. Atomic laws read exact integer weights
through correctly rounded float levels; parametric families use closed
forms, with the normal inverse CDF accurate to well below 1e-9.
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


@dataclass(frozen=True)
class MomentCertificate:
    """Finite upper estimate of the absolute moment of order p.

    Required before any p-Wasserstein computation: it witnesses membership
    in the space of laws with finite p-th moment.
    """

    p: float
    bound: float

    def __post_init__(self):
        check_order(self.p)
        if not math.isfinite(self.bound):
            raise ValueError("moment bound must be finite")


class Distribution1D:
    """Base class; subclasses implement cdf, quantile and abs_moment."""

    kind = "abstract"

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        raise NotImplementedError

    def _abs_moment(self, p: float) -> float:
        raise NotImplementedError

    def moment(self, p: float) -> MomentCertificate:
        """Certify the absolute moment of order p >= 1 is finite."""
        check_order(p)
        return MomentCertificate(p=float(p), bound=self._abs_moment(float(p)))

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

    kind = "empirical"

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

    def _abs_moment(self, p: float) -> float:
        return math.fsum(n / self.total * abs(x) ** p for x, n in zip(self._locs, self.nums))

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
    kind = "uniform"

    def __post_init__(self):
        _require_finite(self.a, "uniform lower bound")
        _require_finite(self.b, "uniform upper bound")
        if not self.a < self.b:
            raise ValueError("uniform law needs a < b")

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

    def _abs_moment(self, p: float) -> float:
        def antideriv(t: float) -> float:
            return math.copysign(abs(t) ** (p + 1), t) / (p + 1)

        return (antideriv(self.b) - antideriv(self.a)) / (self.b - self.a)


@dataclass(frozen=True)
class Normal(Distribution1D):
    mean: float
    stddev: float
    kind = "normal"

    def __post_init__(self):
        _require_finite(self.mean, "normal mean")
        _require_finite(self.stddev, "normal stddev")
        if not self.stddev > 0:
            raise ValueError("normal law needs stddev > 0")

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        z = (x - self.mean) / (self.stddev * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        u = min(max(u, U_CLAMP), 1.0 - U_CLAMP)
        return NormalDist(self.mean, self.stddev).inv_cdf(u)

    def _abs_moment(self, p: float) -> float:
        m, s = self.mean, self.stddev

        def integrand(z: float) -> float:
            return abs(m + s * z) ** p * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        import scipy.integrate as integrate

        value, _ = integrate.quad(integrand, -math.inf, math.inf, epsabs=1e-12, epsrel=1e-12)
        return value


@dataclass(frozen=True)
class Exponential(Distribution1D):
    rate: float
    kind = "exponential"

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
        u = min(max(u, U_CLAMP), 1.0 - U_CLAMP)
        return -math.log1p(-u) / self.rate

    def _abs_moment(self, p: float) -> float:
        return math.gamma(p + 1.0) / self.rate**p


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
