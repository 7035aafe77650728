"""Ingestion and transformation of twice-weekly quotation records.

The raw table carries, per calendar week, Tuesday and Friday quotations for
six series: the gold-silver prices in Paris, London, and Hamburg
(poa, lgs, hoa) and the three cross exchange rates (lpv, hlv, phv).
This module parses and validates that table, fills missing cells, and
derives the two model inputs: the per-week feature vectors used by the
SOM periodization and the weekly spread series used by the switching and
change-point models. It also holds the one JSON codec of the package:
``to_json`` and ``from_json`` write and read back every persisted record
(the features record keeps its matrices in features.csv, see
``write_features``).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ImputationError, ParseError, ValidationError

SERIES = ("poa", "lgs", "hoa", "lpv", "hlv", "phv")
GOLD_SILVER_SERIES = ("poa", "lgs", "hoa")
DAYS = ("tuesday", "friday")
_DAY_SUFFIX = {"tuesday": "t", "friday": "f"}

#: Column order of the ingestion format, after the leading year/week pair.
VALUE_COLUMNS = tuple(
    f"{series}_{_DAY_SUFFIX[day]}" for series in SERIES for day in DAYS
)
HEADER = ("year", "week") + VALUE_COLUMNS

SPREAD_AGGREGATIONS = ("mean", "tuesday", "friday", "per_day")


@dataclass(frozen=True)
class QuotationWeek:
    """One calendar week's raw record: six series, two quotations each.

    ``values`` maps a series id to its (tuesday, friday) prices; a missing
    quotation is None. Present prices are strictly positive.
    """

    year: int
    week: int
    values: dict[str, tuple[float | None, float | None]]

    def value(self, series: str, day: str) -> float | None:
        return self.values[series][DAYS.index(day)]

    @property
    def label(self) -> str:
        return f"{self.year}/{self.week:02d}"

    def is_complete(self) -> bool:
        return all(v is not None for pair in self.values.values() for v in pair)

    def row(self) -> list:
        """Cells in file order (year, week, then the 12 value columns)."""
        cells = [self.year, self.week]
        for series in SERIES:
            cells.extend(self.values[series])
        return cells


@contextmanager
def _stream(target, mode, newline=""):
    """Yield ``target`` when it is already an open stream; otherwise open
    the path it names as UTF-8 text in ``mode`` and close it on exit."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode, encoding="utf-8", newline=newline) as fh:
            yield fh


def write_csv(target, header, rows) -> None:
    """Write a header row, then ``rows``, as CSV with "\\n" line ends."""
    with _stream(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_dataset(source) -> list[QuotationWeek]:
    """Parse the delimited quotation table into validated QuotationWeeks.

    ``source`` is a file path or an open text stream. The header row must
    name exactly the columns year, week, poa_t, poa_f, ..., phv_f; empty
    value cells mean missing. Weeks must be unique and strictly increasing.
    """
    with _stream(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input: missing header row")
        header = [h.strip() for h in header]
        if tuple(header) != HEADER:
            raise ParseError(
                f"unexpected header {header!r}; expected {list(HEADER)!r}", line=1
            )

        weeks: list[QuotationWeek] = []
        last_key = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(HEADER):
                raise ParseError(
                    f"expected {len(HEADER)} cells, found {len(row)}", line=lineno
                )
            try:
                year = int(row[0])
                week = int(row[1])
            except ValueError as exc:
                raise ParseError(f"bad year/week cell: {exc}", line=lineno)
            if not 1 <= week <= 53:
                raise ValidationError(
                    f"line {lineno}: week_of_year {week} outside 1..53"
                )
            key = (year, week)
            if last_key is not None and key <= last_key:
                if key == last_key:
                    raise ValidationError(f"line {lineno}: duplicate week {year}/{week}")
                raise ValidationError(
                    f"line {lineno}: weeks out of order ({year}/{week} after "
                    f"{last_key[0]}/{last_key[1]})"
                )
            last_key = key

            values: dict[str, tuple[float | None, float | None]] = {}
            for i, series in enumerate(SERIES):
                pair = []
                for j, day in enumerate(DAYS):
                    cell = row[2 + 2 * i + j].strip()
                    if cell == "":
                        pair.append(None)
                        continue
                    try:
                        price = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"bad price cell {cell!r} in column "
                            f"{VALUE_COLUMNS[2 * i + j]}",
                            line=lineno,
                        )
                    if not math.isfinite(price) or price <= 0:
                        raise ValidationError(
                            f"line {lineno}: non-positive price {cell} in column "
                            f"{VALUE_COLUMNS[2 * i + j]}"
                        )
                    pair.append(price)
                values[series] = (pair[0], pair[1])
            weeks.append(QuotationWeek(year=year, week=week, values=values))
        return weeks


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_dataset(weeks: list[QuotationWeek], target) -> None:
    """Write QuotationWeeks back to the ingestion format (round-trips parse)."""
    write_csv(target, HEADER, ([_format_cell(c) for c in wk.row()] for wk in weeks))


# ---------------------------------------------------------------------------
# Missing-value treatment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImputedCell:
    """Record of one filled cell: where, what, and how."""

    week_index: int
    year: int
    week: int
    series: str
    day: str
    value: float
    method: str  # "linear" | "backfill" | "forwardfill"


def impute_missing(
    weeks: list[QuotationWeek], max_gap: int = 4
) -> tuple[list[QuotationWeek], list[ImputedCell]]:
    """Fill missing quotations so every cell is present.

    Each (series, day) column is treated as an independent weekly series:
    interior gaps are linearly interpolated between the flanking observed
    values, leading gaps take the first observed value, trailing gaps the
    last. A run of more than ``max_gap`` consecutive missing weeks in one
    column is an ImputationError naming the series and the week range.
    """
    n = len(weeks)
    report: list[ImputedCell] = []
    filled: dict[tuple[str, str], list[float]] = {}

    for series in SERIES:
        for di, day in enumerate(DAYS):
            col = [wk.values[series][di] for wk in weeks]
            present = [i for i, v in enumerate(col) if v is not None]
            if not present and n > 0:
                raise ImputationError(
                    f"series {series} ({day}) has no observed values"
                )
            # Scan runs of missing entries.
            i = 0
            while i < n:
                if col[i] is not None:
                    i += 1
                    continue
                j = i
                while j < n and col[j] is None:
                    j += 1
                run = j - i
                if run > max_gap:
                    raise ImputationError(
                        f"series {series} ({day}): {run} consecutive missing weeks "
                        f"from {weeks[i].label} to {weeks[j - 1].label} "
                        f"exceeds max_gap={max_gap}"
                    )
                if i == 0:
                    method, fills = "backfill", [col[j]] * run
                elif j == n:
                    method, fills = "forwardfill", [col[i - 1]] * run
                else:
                    method = "linear"
                    lo, hi = col[i - 1], col[j]
                    span = j - (i - 1)
                    fills = [lo + (hi - lo) * (k - (i - 1)) / span for k in range(i, j)]
                for k, v in zip(range(i, j), fills):
                    col[k] = v
                    report.append(
                        ImputedCell(
                            week_index=k,
                            year=weeks[k].year,
                            week=weeks[k].week,
                            series=series,
                            day=day,
                            value=v,
                            method=method,
                        )
                    )
                i = j
            filled[(series, day)] = col

    out = []
    for i, wk in enumerate(weeks):
        values = {
            series: (filled[(series, "tuesday")][i], filled[(series, "friday")][i])
            for series in SERIES
        }
        out.append(QuotationWeek(year=wk.year, week=wk.week, values=values))
    return out, report


def imputation_report_to_dict(report: list[ImputedCell]) -> dict:
    return {"n_imputed": len(report), "cells": to_json(report)}


# ---------------------------------------------------------------------------
# Feature vectors
# ---------------------------------------------------------------------------

HPL_KINDS = ("difference", "ratio")


def _hpl(hoa: float, poa: float, lgs: float, kind: str) -> float:
    avg = (poa + lgs) / 2.0
    if kind == "difference":
        return hoa - avg
    if kind == "ratio":
        return hoa / avg
    raise ValidationError(f"unknown hpl kind {kind!r}")


@dataclass
class FeatureSet:
    """All feature vectors of a dataset plus the standardization statistics
    needed to reproduce (or invert) the z-scoring."""

    years: np.ndarray
    weeks: np.ndarray
    base: np.ndarray          # (n, 12) raw values, VALUE_COLUMNS order
    hpl: np.ndarray           # (n, 2) derived variable, one per quotation day
    standardized: np.ndarray  # (n, d) z-scored SOM input
    feature_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    include_hpl: bool
    hpl_kind: str

    def __len__(self) -> int:
        return self.base.shape[0]

    @property
    def labels(self) -> list[str]:
        return [f"{y}/{w:02d}" for y, w in zip(self.years, self.weeks)]

    @property
    def raw_names(self) -> tuple[str, ...]:
        return VALUE_COLUMNS + ("hpl_t", "hpl_f")

    @property
    def raw_matrix(self) -> np.ndarray:
        """Raw (unstandardized) values incl. hpl, for per-class means."""
        return np.hstack([self.base, self.hpl])


def build_features(
    weeks: list[QuotationWeek],
    include_hpl: bool = True,
    hpl_kind: str = "difference",
) -> FeatureSet:
    """Turn complete QuotationWeeks into standardized feature vectors.

    Requires imputed (complete) data. Standardization is a global z-score
    over the whole dataset; a zero-variance coordinate is an error.
    """
    if not weeks:
        raise ValidationError("no data rows")
    if hpl_kind not in HPL_KINDS:
        raise ValidationError(f"hpl_kind {hpl_kind!r} is not one of {HPL_KINDS}")
    for wk in weeks:
        if not wk.is_complete():
            raise ValidationError(
                f"week {wk.label} has missing values; run imputation first"
            )

    base = np.array([[float(c) for c in wk.row()[2:]] for wk in weeks])
    hpl = np.empty((len(weeks), 2))
    for i, wk in enumerate(weeks):
        for di, day in enumerate(DAYS):
            hpl[i, di] = _hpl(
                wk.value("hoa", day), wk.value("poa", day), wk.value("lgs", day),
                hpl_kind,
            )

    if include_hpl:
        raw = np.hstack([base, hpl])
        names = VALUE_COLUMNS + ("hpl_t", "hpl_f")
    else:
        raw = base
        names = VALUE_COLUMNS

    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    zero = np.flatnonzero(stds == 0.0)
    if zero.size:
        raise ValidationError(
            f"cannot standardize: zero variance in {', '.join(names[i] for i in zero)}"
        )
    standardized = (raw - means) / stds

    return FeatureSet(
        years=np.array([wk.year for wk in weeks]),
        weeks=np.array([wk.week for wk in weeks]),
        base=base,
        hpl=hpl,
        standardized=standardized,
        feature_names=names,
        means=means,
        stds=stds,
        include_hpl=include_hpl,
        hpl_kind=hpl_kind,
    )


# ---------------------------------------------------------------------------
# Spread series
# ---------------------------------------------------------------------------

@dataclass
class SpreadSeries:
    """Weekly spread between the highest and lowest gold-silver price.

    ``t_index`` holds the week index of each observation; with per_day
    aggregation each week contributes two consecutive observations.
    """

    t_index: np.ndarray
    years: np.ndarray
    weeks: np.ndarray
    values: np.ndarray
    aggregation: str

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def labels(self) -> list[str]:
        return [f"{y}/{w:02d}" for y, w in zip(self.years, self.weeks)]


def compute_spread(
    weeks: list[QuotationWeek], aggregation: str = "mean"
) -> SpreadSeries:
    """Per week: max minus min of the three gold-silver prices, per quotation
    day, aggregated to one weekly value (default: mean of the two days)."""
    if aggregation not in SPREAD_AGGREGATIONS:
        raise ValidationError(
            f"spread aggregation {aggregation!r} is not one of {SPREAD_AGGREGATIONS}"
        )
    for wk in weeks:
        for series in GOLD_SILVER_SERIES:
            if any(v is None for v in wk.values[series]):
                raise ValidationError(
                    f"week {wk.label} misses a {series} quotation; impute first"
                )

    per_day = np.empty((len(weeks), 2))
    for i, wk in enumerate(weeks):
        for di, day in enumerate(DAYS):
            prices = [wk.value(series, day) for series in GOLD_SILVER_SERIES]
            per_day[i, di] = max(prices) - min(prices)

    years = np.array([wk.year for wk in weeks])
    wnums = np.array([wk.week for wk in weeks])
    idx = np.arange(len(weeks))
    if aggregation == "mean":
        values = per_day.mean(axis=1)
    elif aggregation == "tuesday":
        values = per_day[:, 0]
    elif aggregation == "friday":
        values = per_day[:, 1]
    else:  # per_day: two observations per week, Tuesday first
        values = per_day.reshape(-1)
        idx = np.repeat(idx, 2)
        years = np.repeat(years, 2)
        wnums = np.repeat(wnums, 2)

    return SpreadSeries(
        t_index=idx, years=years, weeks=wnums, values=values,
        aggregation=aggregation,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

#: FeatureSet fields stored as the cells of features.csv; features.json
#: holds the other fields.
_FEATURE_COLUMNS = ("years", "weeks", "base", "hpl", "standardized")


def _features_header(feature_names) -> list[str]:
    return (["year", "week"] + list(VALUE_COLUMNS) + ["hpl_t", "hpl_f"]
            + [f"std_{name}" for name in feature_names])


def write_features_csv(fs: FeatureSet, target) -> None:
    raw = fs.raw_matrix
    write_csv(
        target,
        _features_header(fs.feature_names),
        (
            [fs.years[i], fs.weeks[i]]
            + [repr(float(v)) for v in raw[i]]
            + [repr(float(v)) for v in fs.standardized[i]]
            for i in range(len(fs))
        ),
    )


def write_features(fs: FeatureSet, csv_target, json_target) -> None:
    """Store each FeatureSet field once: the matrices as features.csv cells,
    the names, standardization and flags as JSON (see ``read_features``)."""
    write_features_csv(fs, csv_target)
    write_json(
        {f.name: to_json(getattr(fs, f.name)) for f in dataclasses.fields(fs)
         if f.name not in _FEATURE_COLUMNS},
        json_target,
    )


def read_features(csv_source, json_source) -> FeatureSet:
    """Rebuild the FeatureSet that ``write_features`` stored.

    Cells written by ``repr(float)`` read back exactly. A table that does
    not parse, or whose header does not match the JSON's feature names, is
    a ParseError naming ``csv_source``.
    """
    meta = read_json(json_source)
    with _stream(csv_source, "r") as stream:
        header = stream.readline().rstrip("\n").split(",")
        try:
            table = np.loadtxt(stream, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError(f"malformed artifact {csv_source}: {exc}") from exc
    if header != _features_header(meta["feature_names"]) or table.shape[1] != len(header):
        raise ParseError(
            f"malformed artifact {csv_source}: columns do not match feature_names"
        )
    b = 2 + len(VALUE_COLUMNS)  # first hpl column
    return from_json(FeatureSet, dict(
        meta, years=table[:, 0].astype(int), weeks=table[:, 1].astype(int),
        base=table[:, 2:b], hpl=table[:, b : b + 2], standardized=table[:, b + 2 :],
    ))


def write_spread_csv(spread: SpreadSeries, target) -> None:
    write_csv(
        target,
        ["week_index", "year", "week", "spread"],
        (
            [spread.t_index[i], spread.years[i], spread.weeks[i],
             repr(float(spread.values[i]))]
            for i in range(len(spread))
        ),
    )


def write_json(obj: dict, target) -> None:
    """Write a JSON artifact with stable formatting (used by the pipeline)."""
    with _stream(target, "w", newline=None) as stream:
        json.dump(obj, stream, indent=2, sort_keys=False)
        stream.write("\n")


def read_json(source):
    with _stream(source, "r") as stream:
        return json.load(stream)


def to_json(obj):
    """JSON-ready form of a record: a dataclass becomes its fields in
    declaration order, arrays and tuples become lists, an Enum its value."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    return obj


def from_json(cls, value):
    """Rebuild a ``cls`` record from its to_json form, led by the field
    annotations. Keys that are not init fields of a record are ignored."""
    decode = _decoder(cls)
    return value if decode is None else decode(value)


@functools.cache
def _decoder(tp):
    """A function turning the JSON form of type ``tp`` back into ``tp``, or
    None when the JSON value already is one (scalars pass through)."""
    if tp is np.ndarray:
        return np.array
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = [(f.name, _decoder(hints[f.name])) for f in dataclasses.fields(tp) if f.init]
        return lambda d: tp(**{
            name: d[name] if dec is None else dec(d[name]) for name, dec in fields
        })
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:  # X | None
            inner = _decoder(members[0])
            return None if inner is None else lambda v: None if v is None else inner(v)
        # records told apart by their ``kind`` tag
        by_kind = {m.kind: _decoder(m) for m in members}

        def tagged(v):
            if v["kind"] not in by_kind:
                raise ValueError(f"unknown kind {v['kind']!r}")
            return by_kind[v["kind"]](v)
        return tagged
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            item = _decoder(args[0])
            return tuple if item is None else lambda v: tuple(item(x) for x in v)
        items = [_decoder(a) for a in args]
        if all(dec is None for dec in items):
            return tuple
        return lambda v: tuple(x if dec is None else dec(x) for dec, x in zip(items, v))
    if origin is dict:
        key, item = args[0], _decoder(args[1])  # JSON object keys are strings
        return lambda v: {key(k): x if item is None else item(x) for k, x in v.items()}
    return None
