"""Normal-distribution primitives and moments of normal order statistics.

Everything downstream (optimal weights, simulations, the case study) rests
on the quantities computed here: means and second moments of the five
summary order statistics ``Z_(1) <= Z_(Q+1) <= Z_(2Q+1) <= Z_(3Q+1) <=
Z_(n)`` of a standard-normal sample of size ``n = 4Q + 1``.

Two backends are provided. ``moments_quadrature`` is the deterministic
reference. Its whole domain, n = 5..501 step 4, is integrated once and shipped
as the table ``data/quad_moments.csv`` (written by
``tests/make_quad_table.py``), and a call serves the table's row, read at the
first call. ``_integrated_moments`` (its ``__wrapped__``) is the kernel. It
integrates one density with adaptive Gauss-Legendre panels: the joint density
of ranks r_1 < ... < r_k of n (k = 1 or 2) is n! / prod Gamma(g) * prod
phi(x) * prod mass^(g - 1), with gaps g the differences of (0, r_1, ...,
r_k, n + 1) and the Phi-masses below, between and above the points (David &
Nagaraja, Order Statistics, 3rd ed., sec. 2.2). The end masses are
``log_ndtr(x_1)`` and ``log_ndtr(-x_k)``; a mass between neighbours is one
erfc difference, mirrored to Phi(-x) - Phi(-y) when x + y > 0.
``moments_mc`` averages over sorted standard-normal samples drawn from
counter-based streams, so its output is reproducible for a fixed ``(n,
replicates, seed)`` regardless of how the replicates are chunked.

Every inverse normal CDF is cephes ``ndtri``: the bulk transforms of drawn
uniforms call ``scipy.special.ndtri``, and the scalar ``normal_quantile`` of
the SD rules is a pure-Python port of it that returns the same bits.

numpy and scipy load when a computation first needs them, not at import:
``np`` and ``special`` here are `_OnFirstUse` handles, which import
``numpy`` and ``scipy.special`` at their first attribute read, and `_rng` is
imported at `moments_mc`'s first call. numpy thus first loads with a Monte
Carlo draw, an integrated quadrature or the array
`OrderStatMoments.summary_covariance`; a table row, the covariance of its
summary parts as Python floats, the exact weights solved from it and the
power-law fit need none. ``scipy.special`` first loads with a Monte Carlo moment or
an integrated quadrature (it costs 0.25-0.45 s, more than the rest of the
CLI's start-up). The scalar paths (closed-form weights, the SD rules,
pooling) load neither.
"""

from __future__ import annotations

import importlib
import math
import operator
import sys
from functools import cached_property, lru_cache, partial, reduce
from typing import Mapping

from ._table import cell_float, cell_int, packaged, read_table
from ._value import Value
from .errors import NumericalError, ScenarioError

__all__ = [
    "SUMMARY_FIELDS",
    "summary_parts",
    "OrderIndexSet",
    "OrderStatMoments",
    "AsymptoticQuantileCov",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "moments_mc",
    "moments_quadrature",
    "asymptotic_cov",
    "check_sample_size",
    "check_replicates",
    "check_seed",
    "check_moment_domain",
    "MIN_MC_REPLICATES",
    "MAX_QUADRATURE_SIZE",
]


class _OnFirstUse:
    """The module ``name``, imported when one of its attributes is first read;
    each attribute read is kept, so later reads skip this lookup."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


np, special = _OnFirstUse("numpy"), _OnFirstUse("scipy.special")

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

MIN_MC_REPLICATES = 10_000
MAX_QUADRATURE_SIZE = 501

# Quadrature controls: integrands are restricted to the region holding all
# but ~1e-20 of each order statistic's mass in either tail (always inside
# [-10, 10], where the untruncated normal leaves < 1e-22 behind), and every
# integral is evaluated at successive panel counts of the ladder, each 1.5x
# the last (the rungs are not nested), until two consecutive rungs agree.
# Over n = 5..501 every integral is accepted at its second rung, 12 panels,
# and lies within 1.3e-13 of an 81-panel evaluation.
_GL_ORDER = 16  # Gauss-Legendre nodes per panel
_PANEL_LADDER = (8, 12, 18, 27, 41)
_PANEL_TOL = 1e-8
_SUPPORT_EPS = 1e-20


# ---------------------------------------------------------------------------
# scalar normal primitives


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    The erfc form keeps full relative accuracy in the left tail.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


# cephes ndtri (its sqrt(2 pi) is 1 ulp above _SQRT_2PI; each Q lacks its leading 1):
# P0/Q0 for |p - 1/2| <= 1/2 - e^-2, then in 1/sqrt(-2 log p) P1/Q1 to e^-32, P2/Q2 below
_NDTRI_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703,
             13.931260938727968, -1.2391658386738125)
_NDTRI_Q0 = (1.9544885833814176, 4.676279128988815, 86.36024213908905,
             -225.46268785411937, 200.26021238006066, -82.03722561683334,
             15.90562251262117, -1.1833162112133)
_NDTRI_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213,
             44.08050738932008, 14.684956192885803, 2.1866330685079025,
             -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_NDTRI_Q1 = (15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075,
             2.504649462083094, -0.14218292285478779, -0.03808064076915783,
             -0.0009332594808954574)
_NDTRI_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444,
             1.3330346081580755, 0.20148538954917908, 0.012371663481782003,
             0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_NDTRI_Q2 = (6.02427039364742, 3.6798356385616087, 1.3770209948908132,
             0.21623699359449663, 0.013420400608854318, 0.00032801446468212774,
             2.8924786474538068e-06, 6.790194080099813e-09)
_EXP_M2, _NDTRI_S2PI = 0.13533528323661269189, 2.50662827463100050242  # e^-2, sqrt(2 pi)


def _polevl(x: float, coef: tuple, monic: bool = False) -> float:
    """cephes ``polevl`` (Horner, highest power first), ``p1evl`` if ``monic``."""
    return reduce(lambda v, c: v * x + c, coef[1:], x + coef[0] if monic else coef[0])


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1): cephes ``ndtri``, operation for
    operation, so it returns the bits of ``scipy.special.ndtri``."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, True))) \
            * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num, den = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, num) / _polevl(z, den, True)
    return x if upper else -x


# ---------------------------------------------------------------------------
# count rules: the one place a sample size, replicate count or seed is refused


def _whole(value):
    """``value`` as an int if it is whole (9, 9.0, a numpy integer), else None."""
    try:
        return operator.index(value)
    except TypeError:
        return int(value) if isinstance(value, float) and value.is_integer() else None


def check_sample_size(n) -> int:
    """A sample size, as an int: whole, >= 5 and finite as a float."""
    size = _whole(n)
    if size is None or not 5 <= size <= sys.float_info.max:
        raise ValueError(f"sample size must be an integer >= 5 that is "
                         f"finite as a float, got {n!r}")
    return size


def check_seed(seed) -> int:
    """A seed, as an int: whole, as a float seed keys another stream than its int."""
    if (whole := _whole(seed)) is None:
        raise ValueError(f"seed must be a whole number, got {seed!r}")
    return whole


def check_replicates(replicates, least: int, purpose: str) -> int:
    """A replicate count, as an int: whole and >= ``least``, which ``purpose`` needs."""
    count = _whole(replicates)
    if count is None or count < least:
        raise ValueError(f"refusing to run with replicates={replicates!r}; at least "
                         f"{least} are needed for {purpose}")
    return count


def check_moment_domain(sizes, replicates=None):
    """Refuse, before any work, what a moment backend cannot serve: a size
    `OrderIndexSet` refuses, n > 501 for quadrature (``replicates`` None), or
    fewer than 10,000 Monte Carlo ``replicates``, returned as an int."""
    if replicates is not None:
        replicates = check_replicates(replicates, MIN_MC_REPLICATES, "Monte Carlo moments")
    for n in sizes:
        if OrderIndexSet.from_size(n).n > MAX_QUADRATURE_SIZE and replicates is None:
            raise ValueError(f"quadrature supports n <= {MAX_QUADRATURE_SIZE}, got {n}")
    return replicates


# ---------------------------------------------------------------------------
# domain types

# The five summary values, in the rank order of `OrderIndexSet.indices`.
SUMMARY_FIELDS = ("minimum", "q1", "median", "q3", "maximum")


def summary_parts(minimum, q1, median, q3, maximum):
    """The estimator parts (mid-range, mid-quartile range, median) of the
    five summary values, for floats and arrays alike; a part whose values
    are absent (None) is None."""
    return (None if minimum is None else (minimum + maximum) / 2.0,
            None if q1 is None else (q1 + q3) / 2.0,
            median)


class OrderIndexSet(Value):
    """The five summary ranks {1, Q+1, 2Q+1, 3Q+1, n} for n = 4Q + 1."""

    _fields = ("n", "q")

    def __init__(self, n: int, q: int):
        if not (q >= 1 and n == 4 * q + 1):
            raise ScenarioError(f"index sets need n = 4q + 1, q >= 1, got n={n}, q={q}")
        self.__dict__.update(n=n, q=q)

    @classmethod
    def from_size(cls, n: int) -> "OrderIndexSet":
        size = _whole(n)
        if size is None or size < 5 or size % 4 != 1:
            raise ScenarioError(f"sample size must satisfy n = 4Q + 1 with Q >= 1, "
                                f"got n={n}")
        return cls(size, (size - 1) // 4)

    @property
    def indices(self) -> tuple[int, int, int, int, int]:
        q = self.q
        return (1, q + 1, 2 * q + 1, 3 * q + 1, self.n)

    # each rank by name, read from `indices`
    minimum, lower_quartile, median, upper_quartile, maximum = (
        property(lambda self, k=k: self.indices[k]) for k in range(5))


class OrderStatMoments(Value):
    """Means and raw second moments of the five summary order statistics.

    ``means[i] = E(Z_(i))`` and ``second_moments[(i, j)] = E(Z_(i) Z_(j))``
    for ranks i <= j drawn from the index set of ``n``. ``std_error`` is a
    single 1-sigma bound covering every entry (the Monte Carlo standard
    error, or quadrature's 1e-8 panel acceptance tolerance).
    """

    _fields = ("n", "means", "second_moments", "backend", "std_error")

    def __init__(self, n: int, means: Mapping[int, float],
                 second_moments: Mapping[tuple[int, int], float], backend: str,
                 std_error: float):
        self.__dict__.update(n=n, means=means, second_moments=second_moments,
                             backend=backend, std_error=std_error)
        idx = OrderIndexSet.from_size(self.n)
        expected = set(idx.indices)
        if set(self.means) != expected:
            raise ValueError("means must be keyed by the five summary ranks")
        if set(self.second_moments) != set(_rank_pairs(idx.indices)):
            raise ValueError("second_moments must cover all rank pairs i <= j")
        for i in expected:
            if not self.second_moments[(i, i)] > 0.0:
                raise ValueError(f"E(Z_({i})^2) must be positive")

    @property
    def index_set(self) -> OrderIndexSet:
        return OrderIndexSet.from_size(self.n)

    def mean(self, i: int) -> float:
        return self.means[i]

    def second_moment(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.second_moments[(i, j)]

    def cov(self, i: int, j: int) -> float:
        return self.second_moment(i, j) - self.means[i] * self.means[j]

    def var(self, i: int) -> float:
        return self.cov(i, i)

    def summary_covariance(self) -> np.ndarray:
        """Covariance of (mid-range, mid-quartile range, median); symmetric PSD.

        These are the parts every weighted mean estimator combines, in
        sigma^2 = 1 units: `parts_covariance` as an array, built once per
        instance and handed out read-only.
        """
        return self._summary_covariance

    @cached_property
    def parts_covariance(self) -> tuple[tuple[float, ...], ...]:
        """`summary_covariance` as rows of Python floats, built without numpy.

        L Sigma L' with Sigma the covariance of the five summary ranks and L
        the `_PART_ROWS`, taken as (L Sigma) L' = (Sigma L')' L' as Sigma is
        symmetric. These are the bits of numpy's matmul of the same factors:
        L holds only 0, 1/2 and 1, so every product is exact, and each entry
        adds its five in rank order.
        """
        ranks = self.index_set.indices
        sigma = [[self.cov(i, j) for j in ranks] for i in ranks]
        return tuple(map(tuple, _times_parts(zip(*_times_parts(sigma)))))

    @cached_property
    def _solved(self) -> dict:
        """The weight sets `weights.optimal_weights` solved from these moments,
        by scenario: each is solved once per instance."""
        return {}

    @cached_property
    def _summary_covariance(self) -> np.ndarray:
        parts = np.array(self.parts_covariance)
        parts.flags.writeable = False
        return parts


def _times_parts(rows) -> list:
    """Each of ``rows`` times each of `_PART_ROWS`: five products, added left to
    right (never by `sum`, which compensates its additions from Python 3.12)."""
    return [[x0 * p0 + x1 * p1 + x2 * p2 + x3 * p3 + x4 * p4
             for p0, p1, p2, p3, p4 in _PART_ROWS] for x0, x1, x2, x3, x4 in rows]


# Rows map the five summary ranks (a, q1, m, q3, b) to the estimator parts:
# `summary_parts` of each unit summary is one column.
_PART_ROWS = tuple(zip(*(summary_parts(*(float(k == rank) for k in range(5)))
                         for rank in range(5))))


def __getattr__(name):
    # ``_SUMMARY_PARTS`` is `_PART_ROWS` as a read-only array, built at each
    # read so that importing this module does not import numpy
    if name == "_SUMMARY_PARTS":
        matrix = np.array(_PART_ROWS)
        matrix.flags.writeable = False
        return matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _rank_pairs(ranks) -> list:
    """The pairs (i, j), i <= j, of ``ranks``, row-major: the order of the
    second moments in a moment row."""
    return [(i, j) for a, i in enumerate(ranks) for j in ranks[a:]]


# the table's columns: n, then its moment row of five means and fifteen second moments
_QUAD_COLUMNS = ("n", *(f"mean_{name}" for name in SUMMARY_FIELDS),
                 *(f"m2_{a}_{b}" for a, b in _rank_pairs(SUMMARY_FIELDS)))


def _moments_from_row(n: int, values, backend: str, std_error: float) -> OrderStatMoments:
    """The moments of size ``n`` from its 20 ``values``, in `_QUAD_COLUMNS` order after n."""
    ranks = OrderIndexSet.from_size(n).indices
    return OrderStatMoments(
        n=n, means=dict(zip(ranks, map(float, values[:5]))),
        second_moments=dict(zip(_rank_pairs(ranks), map(float, values[5:]), strict=True)),
        backend=backend, std_error=std_error)


class AsymptoticQuantileCov(Value):
    """Large-sample covariance of two sample quantiles of a normal sample."""

    _fields = ("p_i", "p_j", "n", "value")


def asymptotic_cov(p_i: float, p_j: float, n: int) -> AsymptoticQuantileCov:
    """Asymptotic Cov(Z_[n p_i], Z_[n p_j]) for standard-normal samples.

    Returns p_i (1 - p_j) / (n phi(z_i) phi(z_j)) with z = normal_quantile(p);
    n * value does not depend on n.
    """
    if not (0.0 < p_i <= p_j < 1.0):
        raise ValueError(
            f"quantile levels must satisfy 0 < p_i <= p_j < 1, got ({p_i}, {p_j})"
        )
    size = _whole(n)
    if size is None or size < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    dens_i = normal_pdf(normal_quantile(p_i))
    dens_j = normal_pdf(normal_quantile(p_j))
    value = p_i * (1.0 - p_j) / (size * dens_i * dens_j)
    return AsymptoticQuantileCov(p_i=p_i, p_j=p_j, n=size, value=value)


# ---------------------------------------------------------------------------
# quadrature backend


@lru_cache(maxsize=None)
def _gl_unit() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_grid(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    t, wt = _gl_unit()
    edges = np.linspace(a, b, panels + 1)
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * t[None, :]).ravel()
    weights = (widths[:, None] * wt[None, :]).ravel()
    return nodes, weights


def _rank_support(i: int, n: int) -> tuple[float, float]:
    """Interval leaving ~1e-20 of the mass of Z_(i) from n in each tail.

    The upper end is the mirror of the lower one, Z_(i) = -Z_(n+1-i): the
    upper 1e-20 tail cannot be asked of ``betaincinv`` as 1 - 1e-20, which
    rounds to 1.
    """
    lo_u = special.betaincinv(i, n + 1 - i, _SUPPORT_EPS)
    hi_u = special.betaincinv(n + 1 - i, i, _SUPPORT_EPS)
    lo = special.ndtri(max(lo_u, 1e-300))
    hi = -special.ndtri(max(hi_u, 1e-300))
    return max(float(lo), -10.0), min(float(hi), 10.0)


def _cdf_gap(x, y):
    """Phi(y) - Phi(x) for y >= x as one erfc difference per node.

    A pair with x + y > 0 is mirrored, Phi(y) - Phi(x) = Phi(-x) - Phi(-y),
    so the difference is always taken in the tail nearer the pair. x is the
    column operand (one outer point per row, broadcast against the grid y):
    its two erfc values are taken once per row, so each node of the grid
    pays one erfc.
    """
    flip = x + y > 0.0
    erfc_x, erfc_neg_x = special.erfc(x / _SQRT2), special.erfc(-x / _SQRT2)
    erfc_y = special.erfc(np.where(flip, y, -y) / _SQRT2)
    return 0.5 * np.where(flip, erfc_x - erfc_y, erfc_y - erfc_neg_x)


def _log_density(n: int, ranks: tuple[int, ...], points):
    """Log joint density of the order statistics ``ranks`` of n at ``points``.

    log n! - sum log Gamma(g) + sum log phi(x) + sum (g - 1) log(mass), with
    the gaps and masses of the module docstring; a gap of 1 adds no term.
    """
    gaps = np.diff((0, *ranks, n + 1))
    log_f = special.gammaln(n + 1) - special.gammaln(gaps).sum()
    for x in points:
        log_f = log_f - (0.5 * x * x + math.log(_SQRT_2PI))
    bounds = (None, *points, None)
    with np.errstate(divide="ignore"):
        for gap, lo, hi in zip(gaps, bounds, bounds[1:]):
            if gap == 1:
                continue
            if lo is None:
                log_mass = special.log_ndtr(hi)
            elif hi is None:
                log_mass = special.log_ndtr(-lo)
            else:
                log_mass = np.log(_cdf_gap(lo, hi))
            log_f = log_f + (gap - 1) * log_mass
    return log_f


def _moment_once(n: int, ranks: tuple[int, ...], power: int, panels: int) -> float:
    """E[Z_(i)^power] for ranks (i,), E[(Z_(i) Z_(j))^power] for (i, j)."""
    x, w = _panel_grid(*_rank_support(ranks[0], n), panels)
    if len(ranks) == 1:
        return float(np.sum(w * x ** power * np.exp(_log_density(n, ranks, (x,)))))
    # y runs over [max(x, ay), by], never empty as Z_(i)'s support ends at or
    # below Z_(j)'s; the [0, 1] panel template is mapped onto each interval
    ay, by = _rank_support(ranks[1], n)
    t, wt = _panel_grid(0.0, 1.0, panels)
    x = x[:, None]
    lo = np.maximum(x, ay)
    span = by - lo
    y = lo + span * t
    density = np.exp(_log_density(n, ranks, (x, y)))
    inner = np.sum(span * wt * (x * y) ** power * density, axis=1)
    return float(np.sum(w * inner))


def _adaptive(evaluate) -> tuple[float, float]:
    """Refine along the panel ladder until two evaluations agree."""
    value = evaluate(_PANEL_LADDER[0])
    for panels in _PANEL_LADDER[1:]:
        refined = evaluate(panels)
        err = abs(refined - value)
        value = refined
        if err <= _PANEL_TOL:
            return value, err
    raise NumericalError(
        f"order-statistic quadrature failed to converge below {_PANEL_TOL:g} "
        f"(last panel difference {err:g})"
    )


def _quad_table_file():
    """The shipped quadrature moment table, a `packaged` file."""
    return packaged("quad_moments.csv")


def _read_quad_table(source) -> dict:
    """The 20 moments of each size, by n, of the quadrature table at ``source``."""
    return dict(read_table(source, "quadrature moment", _QUAD_COLUMNS, lambda record: (
        cell_int(record["n"], "n"), [cell_float(record[name], name)
                                     for name in _QUAD_COLUMNS[1:]])))


@lru_cache(maxsize=None)
def _quad_table() -> dict:
    """The shipped table, read once."""
    return _read_quad_table(_quad_table_file())


@lru_cache(maxsize=None)
def moments_quadrature(n: int) -> OrderStatMoments:
    """Deterministic moments of the five summary order statistics.

    Supports 5 <= n <= 501 with n = 4Q + 1: built from the size's row of the
    shipped table once per size (``cache_clear`` drops them; the table, read
    at the first call, stays).
    """
    check_moment_domain((n,))
    n = OrderIndexSet.from_size(n).n
    return _moments_from_row(n, _quad_table()[n], "quadrature", _PANEL_TOL)


def _integrated_moments(n: int) -> OrderStatMoments:
    """`moments_quadrature` integrated, as the shipped table was written. Every
    mean and second moment is integrated independently (no symmetry
    shortcuts), so the mirror-symmetry identities of normal order statistics
    remain genuine checks on the output."""
    check_moment_domain((n,))
    idx = OrderIndexSet.from_size(n)
    ranks = idx.indices
    # (ranks, power) of each mean, then of each second moment
    integrals = [((i,), 1) for i in ranks] + [
        ((i,), 2) if i == j else ((i, j), 1) for i, j in _rank_pairs(ranks)]
    return _moments_from_row(idx.n, [_adaptive(partial(_moment_once, idx.n, *args))[0]
                                     for args in integrals], "quadrature", _PANEL_TOL)


moments_quadrature.__wrapped__ = _integrated_moments


# ---------------------------------------------------------------------------
# Monte Carlo backend


def moments_mc(n: int, replicates: int, seed: int) -> OrderStatMoments:
    """Monte Carlo moments over sorted standard-normal samples.

    Replicate ``r`` draws its ``n`` uniforms from a dedicated counter window
    of a Philox stream keyed by ``(seed, n)``; they are sorted and only the
    five summary ranks are mapped through ``ndtri``. The per-replicate
    products are summed over fixed 512-replicate cells before the cells are
    added, so the result is bit-identical for a given ``(n, replicates,
    seed)`` no matter how the replicates are chunked. The seed is whole.
    """
    from ._rng import cell_sums, replicate_chunks, stream_key

    replicates = check_moment_domain((n,), replicates)
    idx = OrderIndexSet.from_size(n)
    n = idx.n
    ranks = idx.indices
    cols = np.array(ranks) - 1
    left, right = np.array(_rank_pairs(range(5))).T  # the columns of each product
    key = stream_key("order-stat-moments", check_seed(seed), n)
    cells = []
    for _, u in replicate_chunks(key, replicates, n):
        # as ndtri is increasing this equals transforming, then sorting, every
        # draw, but for one-ulp dips of ndtri between neighbouring uniforms
        # near e**-2: a row holding two astride a summary rank would differ
        u.sort(axis=1)
        zsel = special.ndtri(u[:, cols])
        # per replicate: its moment row (z, then each product), then its squares
        stats = np.hstack([zsel, zsel[:, left] * zsel[:, right]])
        cells.append(cell_sums(np.hstack([stats, stats * stats])))
    t = float(replicates)
    sums = np.concatenate(cells).sum(axis=0) / t
    row, squares = np.split(sums, 2)
    se = np.sqrt(np.maximum(squares - row ** 2, 0.0) / t)
    return _moments_from_row(n, row, "monte_carlo", float(se.max()))
