"""Meta-analysis pipeline over heterogeneous study summaries.

Studies may report a five-number-summary fragment, mean and SD, an odds
ratio with its confidence interval, or a mean with the range. Each record
is converted to a standardized mean difference (controls minus cases) with
its variance, then pooled with DerSimonian-Laird random effects alongside
Cochran's Q, the chi-square heterogeneity p-value, and the I^2 index.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from typing import Sequence, Union

from ._table import cell_float, cell_int, packaged, read_table
from ._value import Value
from .estimators import (
    PROFILES,
    SD_METHODS,
    FiveNumberSummary,
    estimate_mean,
    lookup_method,
    sd_estimate,
)
from .order_stats import SUMMARY_FIELDS, _whole

__all__ = [
    "FiveNumberPayload",
    "MeanSdPayload",
    "OddsRatioPayload",
    "MeanRangePayload",
    "StudyRecord",
    "StudyEffect",
    "Heterogeneity",
    "MetaResult",
    "StudyConversionError",
    "PROFILES",
    "cohens_d",
    "odds_ratio_to_d",
    "heterogeneity",
    "pool_random_effects",
    "run_case_study",
    "read_study_csv",
    "load_bundled_studies",
    "bundled_table1",
]

_LN_OR_TO_D = math.sqrt(3.0) / math.pi
_Z95 = 1.96


class FiveNumberPayload(Value):
    _fields = ("cases", "controls")


class MeanSdPayload(Value):
    _fields = ("mean_cases", "sd_cases", "mean_controls", "sd_controls")


class OddsRatioPayload(Value):
    _fields = ("odds_ratio", "ci_low", "ci_high")


class MeanRangePayload(Value):
    _fields = ("mean_cases", "min_cases", "max_cases", "mean_controls", "min_controls",
               "max_controls")


Payload = Union[FiveNumberPayload, MeanSdPayload, OddsRatioPayload, MeanRangePayload]


def _arm_sizes(n_cases, n_controls) -> tuple[int, int]:
    """Two arm sizes, as ints: each whole and >= 2, the total finite as a float."""
    arms = _whole(n_cases), _whole(n_controls)
    if None in arms or min(arms) < 2 or sum(arms) > sys.float_info.max:
        raise ValueError(f"arm sizes must be whole and at least 2 with a total that "
                         f"is finite as a float, got {n_cases!r}/{n_controls!r}")
    return arms


class StudyRecord(Value):
    _fields = ("index", "label", "n_cases", "n_controls", "payload", "note")

    def __init__(self, index: int, label: str, n_cases: int, n_controls: int,
                 payload: Payload, note: str = ""):
        self.__dict__.update(index=index, label=label, n_cases=n_cases,
                             n_controls=n_controls, payload=payload, note=note)
        try:
            _arm_sizes(self.n_cases, self.n_controls)
        except ValueError as exc:
            raise ValueError(f"study {self.index}: {exc}") from None


class StudyEffect(Value):
    """Standardized mean difference (controls minus cases) and its variance."""

    _fields = ("d", "var_d")

    def __init__(self, d: float, var_d: float):
        self.__dict__.update(d=d, var_d=var_d)
        if not (math.isfinite(self.d) and math.isfinite(self.var_d)):
            raise ValueError(f"effect is not finite: d={self.d!r}, var_d={self.var_d!r}")
        if not self.var_d > 0:
            raise ValueError(f"effect variance must be positive, got {self.var_d!r}")

    @property
    def weight(self) -> float:
        return 1.0 / self.var_d

    @property
    def ci95(self) -> tuple[float, float]:
        half = _Z95 * math.sqrt(self.var_d)
        return (self.d - half, self.d + half)


class Heterogeneity(Value):
    _fields = ("q", "df", "p_value", "i_squared")


class MetaResult(Value):
    _fields = ("effects", "pooled_d", "pooled_ci95", "q", "df", "p_value", "i_squared",
               "tau_squared")

    def to_dict(self) -> dict:
        """Every field, the effects and intervals as JSON-ready lists."""
        effects = [{"d": e.d, "var_d": e.var_d, "weight": e.weight, "ci95": list(e.ci95)}
                   for e in self.effects]
        return {**self._asdict(), "effects": effects, "pooled_ci95": list(self.pooled_ci95)}


class StudyConversionError(ValueError):
    """One or more study records could not be converted to effect sizes."""

    def __init__(self, failures: Sequence[tuple[int, str, str]]):
        self.failures = tuple(failures)
        lines = [f"study {idx} ({label}): {msg}" for idx, label, msg in self.failures]
        super().__init__(
            "could not convert {} stud{}:\n  {}".format(
                len(lines), "y" if len(lines) == 1 else "ies", "\n  ".join(lines)
            )
        )


# ---------------------------------------------------------------------------
# effect sizes


def _smd_variance(d: float, n_cases: int, n_controls: int) -> float:
    # Sampling variance of the standardized mean difference. The small-
    # sample factor N/(N-2) is required to regenerate the published study
    # weights (1/var) from the effect sizes.
    total = n_cases + n_controls
    base = total / (n_cases * n_controls) + d * d / (2.0 * total)
    return base * total / (total - 2.0)


def cohens_d(mean_cases: float, sd_cases: float, n_cases: int,
             mean_controls: float, sd_controls: float, n_controls: int) -> StudyEffect:
    """Cohen's d (controls minus cases) with the pooled SD.

    d = (mean_controls - mean_cases) / s_pooled with
    s_pooled^2 = ((n_c - 1) sd_c^2 + (n_t - 1) sd_t^2) / (n_c + n_t - 2).
    A pooled variance past the float range, or below the smallest normal
    float (where its squares have lost precision or underflowed to 0), is
    refused.
    """
    if not (0 < sd_cases < math.inf and 0 < sd_controls < math.inf):
        raise ValueError(f"standard deviations must be positive and finite, "
                         f"got {sd_cases!r} and {sd_controls!r}")
    n_cases, n_controls = _arm_sizes(n_cases, n_controls)
    pooled_var = (((n_cases - 1) * (sd_cases * sd_cases)
                   + (n_controls - 1) * (sd_controls * sd_controls))
                  / (n_cases + n_controls - 2))
    if not sys.float_info.min <= pooled_var < math.inf:
        raise ValueError(f"pooled variance is not a finite normal float: {pooled_var!r}")
    d = (mean_controls - mean_cases) / math.sqrt(pooled_var)
    return StudyEffect(d=d, var_d=_smd_variance(d, n_cases, n_controls))


def odds_ratio_to_d(odds_ratio: float, ci: tuple[float, float],
                    n_cases: int, n_controls: int) -> StudyEffect:
    """Convert an odds ratio to a standardized mean difference.

    d = ln(OR) * sqrt(3) / pi (the logistic-to-normal scale conversion);
    the variance uses the same sample-size formula as `cohens_d`.
    """
    lo, hi = ci
    if odds_ratio <= 0:
        raise ValueError(f"odds ratio must be positive, got {odds_ratio!r}")
    if not 0 < lo < hi:
        raise ValueError(f"confidence bounds must satisfy 0 < low < high, got {ci!r}")
    n_cases, n_controls = _arm_sizes(n_cases, n_controls)
    d = math.log(odds_ratio) * _LN_OR_TO_D
    return StudyEffect(d=d, var_d=_smd_variance(d, n_cases, n_controls))


# ---------------------------------------------------------------------------
# pooling


_TAIL_CONTEXT = Context(prec=34, Emax=MAX_EMAX, Emin=MIN_EMIN)  # nothing over/underflows
_SQRT_PI = Decimal("1.772453850905516027298167483341145")


def _chi2_upper_tail(q: float, df: int) -> float:
    """P(chi2_df >= q) for whole df in closed form (Abramowitz & Stegun 26.4.4-5):
    with x = q/2, e^-x sum_{j<df/2} x^j/j! for even df, and erfc(sqrt x) +
    e^-x sum_{j<(df-1)/2} x^(j+1/2)/Gamma(j+3/2) for odd. Taken in `decimal`, whose
    exponent range keeps e^-x (a float's is 0.0 past x = 745, yet Q = 1999 on 1999
    df has p = 0.49); z is sqrt(x) rounded, and the sum takes in erfc(sqrt x) - erfc(z)."""
    with localcontext(_TAIL_CONTEXT):
        x = Decimal(q) / 2
        root = x.sqrt()
        z = float(root)
        half = Decimal(df % 2) / 2
        term = 2 * root / _SQRT_PI if half else Decimal(1)
        total = 2 * (df % 2) * (Decimal(z) - root) / _SQRT_PI
        for j in range(1, df // 2 + 1):
            total += term
            term = term * x / (j + half)
        tail = float(total * (-x).exp())
    return tail + math.erfc(z) if df % 2 else tail


def heterogeneity(effects: Sequence[StudyEffect]) -> Heterogeneity:
    """Cochran's Q with its chi-square p-value and the I^2 index.

    Q = sum(w (d - d_bar)^2) with w = 1/var_d and d_bar = sum(w d) / sum(w),
    taken in two passes: the one-pass sum(w d^2) - (sum(w d))^2 / sum(w)
    cancels to 0 once one study's weight dwarfs the rest. The p-value is
    the upper chi-square tail at k - 1 degrees of freedom, `_chi2_upper_tail`
    (within 1 ulp of mpmath on the tested draws up to 4,000 df, where scipy's
    ``gammaincc`` is thousands of ulp off); I^2 = max(0, (Q - df)/Q) expressed
    as a percentage. A Q past the float range is refused.
    """
    effects = list(effects)
    if len(effects) < 2:
        raise ValueError("heterogeneity needs at least 2 studies")
    d_bar = sum(e.weight * e.d for e in effects) / sum(e.weight for e in effects)
    q = sum(e.weight * (e.d - d_bar) * (e.d - d_bar) for e in effects)
    if not math.isfinite(q):
        raise ValueError(f"Cochran's Q is not finite: {q!r}")
    df = len(effects) - 1
    p = _chi2_upper_tail(q, df)
    i2 = 100.0 * max(0.0, (q - df) / q) if q > 0 else 0.0
    return Heterogeneity(q=q, df=df, p_value=p, i_squared=i2)


def pool_random_effects(effects: Sequence[StudyEffect]) -> MetaResult:
    """DerSimonian-Laird random-effects pooling.

    tau^2 = max(0, (Q - df) / (sum(w) - sum(w^2)/sum(w))), studies are
    re-weighted by 1/(var_d + tau^2), and the 95% CI uses the normal
    critical value on the pooled standard error. The denominator is taken
    as 2 sum_{i<j} w_i w_j / sum(w), which has no cancellation when one
    study's weight dwarfs the rest; squared weights past the float range
    are refused.
    """
    effects = tuple(effects)
    het = heterogeneity(effects)
    sww = sum(e.weight * e.weight for e in effects)
    if not math.isfinite(sww):
        raise ValueError(f"sum of squared study weights is not finite: {sww!r}")
    sw = cross = 0.0
    for e in effects:
        cross += e.weight * sw
        sw += e.weight
    denom = 2.0 * cross / sw
    tau2 = max(0.0, (het.q - het.df) / denom) if denom > 0 else 0.0
    star = [1.0 / (e.var_d + tau2) for e in effects]
    total = sum(star)
    pooled = sum(w * e.d for w, e in zip(star, effects)) / total
    half = _Z95 / math.sqrt(total)
    return MetaResult(effects=effects, pooled_d=pooled,
                      pooled_ci95=(pooled - half, pooled + half), **het._asdict(),
                      tau_squared=tau2)


# ---------------------------------------------------------------------------
# the case-study runner


def _fivenum_effect(p, record, mean_method, sd_method):
    mean_c = estimate_mean(p.cases, mean_method).value
    mean_t = estimate_mean(p.controls, mean_method).value
    sd_c = sd_estimate(p.cases, sd_method).value
    sd_t = sd_estimate(p.controls, sd_method).value
    return cohens_d(mean_c, sd_c, record.n_cases, mean_t, sd_t, record.n_controls)


def _meanrange_effect(p, record, mean_method, sd_method):
    # a range is an S1 fragment without its median
    sd_rule = lookup_method(sd_method, "s1", SD_METHODS).from_range
    return cohens_d(
        p.mean_cases, sd_rule(p.min_cases, p.max_cases, record.n_cases), record.n_cases,
        p.mean_controls, sd_rule(p.min_controls, p.max_controls, record.n_controls),
        record.n_controls)


# payload_type -> (payload class, its conversion to a StudyEffect, called as
# convert(payload, record, mean_method, sd_method))
_PAYLOADS = {
    "fivenum": (FiveNumberPayload, _fivenum_effect),
    "meansd": (MeanSdPayload, lambda p, record, *_: cohens_d(
        p.mean_cases, p.sd_cases, record.n_cases,
        p.mean_controls, p.sd_controls, record.n_controls)),
    "or": (OddsRatioPayload, lambda p, record, *_: odds_ratio_to_d(
        p.odds_ratio, (p.ci_low, p.ci_high), record.n_cases, record.n_controls)),
    "meanrange": (MeanRangePayload, _meanrange_effect),
}
_EFFECTS = dict(_PAYLOADS.values())


def _study_effect(record: StudyRecord, mean_method: str, sd_method: str) -> StudyEffect:
    effect = _EFFECTS.get(type(record.payload))
    if effect is None:
        raise ValueError(f"unsupported payload type {type(record.payload).__name__}")
    return effect(record.payload, record, mean_method, sd_method)


def run_case_study(records: Sequence[StudyRecord], mean_method: str,
                   sd_method: str) -> MetaResult:
    """Convert every record to an effect size and pool them.

    Five-number payloads go through the chosen mean and SD estimators;
    mean-with-range payloads estimate only the SD from the range; mean/SD
    and odds-ratio payloads convert directly. Any per-study failure aborts
    the run with a `StudyConversionError` listing every offending study.
    """
    records = list(records)
    if not records:
        raise ValueError("no study records supplied")
    effects = []
    failures = []
    for record in records:
        try:
            effects.append(_study_effect(record, mean_method, sd_method))
        except ValueError as exc:
            failures.append((record.index, record.label, str(exc)))
    if failures:
        raise StudyConversionError(failures)
    return pool_random_effects(effects)


# ---------------------------------------------------------------------------
# study-record CSV input

# then f01..f11 (positional per payload type) and note
_CSV_COLUMNS = ["index", "label", "n_cases", "n_controls", "payload_type"]


def _parse_payload(row: dict, n_cases: int, n_controls: int) -> Payload:
    kind = row["payload_type"].strip().lower()
    if kind not in _PAYLOADS:
        raise ValueError(f"unknown payload type {kind!r}")
    cls = _PAYLOADS[kind][0]
    f = [row.get(f"f{k:02d}", "") for k in range(1, 12)]
    if cls is not FiveNumberPayload:
        # all fields required, in field order from f01, and no value after them
        size = len(cls._fields)
        for k, raw in enumerate(f[size:], start=size + 1):
            if raw.strip():
                raise ValueError(f"{kind} takes f01..f{size:02d}, but f{k:02d} "
                                 f"holds {raw.strip()!r}")
        return cls(*(cell_float(raw, f"{name} (f{k:02d})")
                     for k, (name, raw) in enumerate(zip(cls._fields, f), start=1)))
    scenario = f[0].strip().lower()
    if not scenario:
        raise ValueError("fivenum payload needs a scenario in f01")
    # each arm's five values by position in `SUMMARY_FIELDS`, from f02 and
    # f07; every scenario reports the median
    return FiveNumberPayload(*(
        FiveNumberSummary(scenario=scenario, n=n, **{
            name: cell_float(raw, f"{arm} {name} (f{k:02d})" if name == "median" else None)
            for k, name, raw in zip(range(first + 1, 12), SUMMARY_FIELDS, f[first:])})
        for first, arm, n in ((1, "cases", n_cases), (6, "controls", n_controls))))


def _study_record(row: dict) -> StudyRecord:
    index, n_cases, n_controls = (cell_int(row[name], name)
                                  for name in ("index", "n_cases", "n_controls"))
    return StudyRecord(index=index, label=row["label"].strip(), n_cases=n_cases,
                       n_controls=n_controls, note=row.get("note", "").strip(),
                       payload=_parse_payload(row, n_cases, n_controls))


def read_study_csv(source) -> list[StudyRecord]:
    """Read study records from a CSV file: a path or a `packaged` file.

    Rows are ``index,label,n_cases,n_controls,payload_type,f01..f11,note``
    with payload_type one of fivenum, meansd, or, meanrange; the f-columns
    are positional per payload type (see the bundled table1.csv and the
    README for the layout), and a value past a payload's fields is refused.
    It is read by `read_table`: ``#`` lines are skipped and a refused row is
    named by its line in the file.
    """
    records = read_table(source, "study", _CSV_COLUMNS, _study_record)
    if not records:
        raise ValueError("study CSV holds no data rows")
    return records


def bundled_table1():
    """The bundled seven-study fixture, a `packaged` file."""
    return packaged("table1.csv")


def load_bundled_studies() -> list[StudyRecord]:
    return read_study_csv(bundled_table1())
