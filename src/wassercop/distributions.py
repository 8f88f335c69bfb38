"""One-dimensional probability laws with exact CDF and quantile evaluation.

Every law exposes the distribution function F and its generalized inverse
F^{-1}(u) = inf{x : F(x) >= u}. For atomic laws both are evaluated exactly
(weights are kept as rationals internally); parametric families use closed
forms, with the normal inverse CDF accurate to well below 1e-9.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Iterable, Sequence

from scipy import integrate

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


@dataclass(frozen=True)
class MomentCertificate:
    """Finite upper estimate of the absolute moment of order p.

    Required before any p-Wasserstein computation: it witnesses membership
    in the space of laws with finite p-th moment.
    """

    p: float
    bound: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("moment order p must be >= 1")
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
        if p < 1:
            raise ValueError("moment order p must be >= 1")
        return MomentCertificate(p=float(p), bound=self._abs_moment(float(p)))

    def cumulative_breakpoints(self) -> tuple[Fraction, ...]:
        """Interior jump levels of the quantile staircase (empty if none)."""
        return ()


class Empirical(Distribution1D):
    """Finitely supported law: sorted atoms with exact rational weights."""

    kind = "empirical"

    def __init__(self, atoms: Iterable[tuple[float, object]]):
        merged: dict[float, Fraction] = {}
        for loc, w in atoms:
            loc = _require_finite(loc, "atom location")
            # decimal strings and Fractions stay exact; floats convert to
            # their exact binary rational
            wf = Fraction(w)
            if wf <= 0:
                raise ValueError(f"atom weight must be positive, got {w!r}")
            merged[loc] = merged.get(loc, Fraction(0)) + wf
        if not merged:
            raise ValueError("empirical law needs at least one atom")
        total = sum(merged.values())
        locs = sorted(merged)
        self._locs: tuple[float, ...] = tuple(locs)
        self._weights: tuple[Fraction, ...] = tuple(merged[x] / total for x in locs)
        cum: list[Fraction] = []
        acc = Fraction(0)
        for w in self._weights:
            acc += w
            cum.append(acc)
        self._cum: tuple[Fraction, ...] = tuple(cum)
        self._cum_float: tuple[float, ...] = tuple(float(c) for c in cum)

    @property
    def locations(self) -> tuple[float, ...]:
        return self._locs

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self._weights

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple((x, float(w)) for x, w in zip(self._locs, self._weights))

    def cumulative(self) -> tuple[Fraction, ...]:
        return self._cum

    def cumulative_breakpoints(self) -> tuple[Fraction, ...]:
        return self._cum[:-1]

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        k = bisect_right(self._locs, x)
        return float(self._cum[k - 1]) if k else 0.0

    def quantile(self, u: float) -> float:
        u = _check_u(u)
        if u == 0.0:
            return self._locs[0]
        # first index with cumulative weight >= u. u is matched against the
        # float-rounded levels that cdf() reports, so quantile(cdf(x)) <= x
        # even when rounding a level up to the nearest float.
        k = bisect_left(self._cum_float, u)
        if k == len(self._locs):
            k -= 1
        return self._locs[k]

    def _abs_moment(self, p: float) -> float:
        return math.fsum(float(w) * abs(x) ** p for x, w in zip(self._locs, self._weights))

    def __eq__(self, other):
        return (
            isinstance(other, Empirical)
            and self._locs == other._locs
            and self._weights == other._weights
        )

    def __hash__(self):
        return hash((self._locs, self._weights))

    def __repr__(self):
        return f"Empirical({list(zip(self._locs, map(float, self._weights)))})"


@dataclass(frozen=True)
class PointMass(Distribution1D):
    location: float
    kind = "point_mass"

    def __post_init__(self):
        _require_finite(self.location, "point mass location")

    def cdf(self, x: float) -> float:
        x = _require_finite(x, "cdf argument")
        return 1.0 if x >= self.location else 0.0

    def quantile(self, u: float) -> float:
        _check_u(u)
        return self.location

    def _abs_moment(self, p: float) -> float:
        return abs(self.location) ** p


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
    return Empirical(zip(xs, ws))
