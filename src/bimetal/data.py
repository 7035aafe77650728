"""Ingestion and transformation of twice-weekly quotation records.

The raw table carries, per calendar week, Tuesday and Friday quotations for
six series: the gold-silver prices in Paris, London, and Hamburg
(poa, lgs, hoa) and the three cross exchange rates (lpv, hlv, phv).
This module parses and validates that table into one QuotationTable,
a (weeks x 12) array with NaN for a missing quotation, fills the missing
cells, and derives the two model inputs from it: the per-week feature
vectors used by the SOM periodization and the weekly spread series used
by the switching and change-point models. It also holds the one JSON
codec of the package: ``to_json`` writes every JSON record and
``from_json`` reads the model records back. The features and the spread are
not read back from JSON: the run's flags rebuild both from the imputed
QuotationTable that ``write_features_csv`` stores.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import reprlib
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
#: Raw columns of a feature record: the quotations, then the derived hpl pair.
RAW_COLUMNS = VALUE_COLUMNS + ("hpl_t", "hpl_f")

SPREAD_AGGREGATIONS = ("mean", "tuesday", "friday", "per_day")


class _WeekLabels:
    """``labels`` of a record with ``years`` and ``weeks`` arrays."""

    @property
    def labels(self) -> list[str]:
        return [f"{y}/{w:02d}" for y, w in zip(self.years.tolist(), self.weeks.tolist())]


@dataclass
class QuotationTable(_WeekLabels):
    """The raw quotation table, one row per calendar week.

    ``values`` holds each week's 12 quotations in VALUE_COLUMNS order
    (each series' Tuesday price, then its Friday price); NaN marks a
    missing quotation. Present prices are strictly positive.
    """

    years: np.ndarray   # (n,) int
    weeks: np.ndarray   # (n,) int
    values: np.ndarray  # (n, 12) float

    def __len__(self) -> int:
        return self.values.shape[0]

    def by_series(self) -> np.ndarray:
        """(n, 6, 2) view of ``values``: week, series (SERIES order), day."""
        return self.values.reshape(-1, len(SERIES), len(DAYS))


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


def _csv_rows(stream):
    """``csv.reader(stream)``, with bytes that are not UTF-8 a ParseError."""
    try:
        yield from csv.reader(stream)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc


def parse_dataset(source) -> QuotationTable:
    """Parse the delimited quotation table into a validated QuotationTable.

    ``source`` is a file path or an open text stream. The header row must
    name exactly the columns year, week, poa_t, poa_f, ..., phv_f; empty
    value cells mean missing. Weeks must be unique and strictly increasing.
    """
    with _stream(source, "r") as stream:
        reader = _csv_rows(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input: missing header row")
        header = [h.strip() for h in header]
        if tuple(header) != HEADER:
            raise ParseError(
                f"unexpected header {header!r}; expected {list(HEADER)!r}", line=1
            )

        keys: list[tuple[int, int]] = []
        rows: list[list[float]] = []
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
            if keys and key <= keys[-1]:
                if key == keys[-1]:
                    raise ValidationError(f"line {lineno}: duplicate week {year}/{week}")
                raise ValidationError(
                    f"line {lineno}: weeks out of order ({year}/{week} after "
                    f"{keys[-1][0]}/{keys[-1][1]})"
                )
            keys.append(key)

            prices = []
            for column, cell in zip(VALUE_COLUMNS, row[2:]):
                cell = cell.strip()
                if cell == "":
                    prices.append(math.nan)
                    continue
                try:
                    price = float(cell)
                except ValueError:
                    raise ParseError(
                        f"bad price cell {cell!r} in column {column}", line=lineno
                    )
                if not math.isfinite(price):
                    raise ValidationError(
                        f"line {lineno}: non-finite price {cell} in column {column}"
                    )
                if price <= 0:
                    raise ValidationError(
                        f"line {lineno}: non-positive price {cell} in column {column}"
                    )
                prices.append(price)
            rows.append(prices)
    return QuotationTable(
        years=np.array([y for y, _ in keys], dtype=int),
        weeks=np.array([w for _, w in keys], dtype=int),
        values=np.array(rows, dtype=float).reshape(-1, len(VALUE_COLUMNS)),
    )


def _table_rows(keys, values):
    """CSV rows: the integer key columns (1-D arrays), then each float of the
    2-D ``values`` by ``repr``, which reads back exactly ("" for NaN)."""
    for *key, row in zip(*(k.tolist() for k in keys), values):
        yield key + ["" if math.isnan(v) else repr(v) for v in row.tolist()]


def write_dataset(table: QuotationTable, target) -> None:
    """Write a QuotationTable back to the ingestion format (round-trips parse)."""
    write_csv(target, HEADER, _table_rows((table.years, table.weeks), table.values))


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
    table: QuotationTable, max_gap: int = 4
) -> tuple[QuotationTable, list[ImputedCell]]:
    """Fill missing quotations so every cell is present.

    Each (series, day) column is treated as an independent weekly series:
    interior gaps are linearly interpolated between the flanking observed
    values, leading gaps take the first observed value, trailing gaps the
    last. A run of more than ``max_gap`` consecutive missing weeks in one
    column is an ImputationError naming the series and the week range.
    The report lists the filled cells column by column (VALUE_COLUMNS
    order), each column in week order.
    """
    n = len(table)
    values = table.values.copy()
    years, weeks = table.years.tolist(), table.weeks.tolist()
    report: list[ImputedCell] = []
    for c, missing in enumerate(np.isnan(values).T):
        if not missing.any():
            continue
        series, day = SERIES[c // len(DAYS)], DAYS[c % len(DAYS)]
        if missing.all():
            raise ImputationError(f"series {series} ({day}) has no observed values")
        col = values[:, c].tolist()
        # each run of missing weeks is the half-open range [i, j)
        edges = np.diff(missing, prepend=False, append=False)
        bounds = np.flatnonzero(edges).tolist()
        for i, j in zip(bounds[::2], bounds[1::2]):
            run = j - i
            if run > max_gap:
                labels = table.labels
                raise ImputationError(
                    f"series {series} ({day}): {run} consecutive missing weeks "
                    f"from {labels[i]} to {labels[j - 1]} "
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
            values[i:j, c] = fills
            report.extend(
                ImputedCell(week_index=k, year=years[k], week=weeks[k],
                            series=series, day=day, value=v, method=method)
                for k, v in zip(range(i, j), fills)
            )
    return QuotationTable(years=table.years, weeks=table.weeks, values=values), report


def imputation_report_to_dict(report: list[ImputedCell]) -> dict:
    return {"n_imputed": len(report), "cells": to_json(report)}


def _first_gap(table: QuotationTable, n_series: int):
    """(week label, series) of the first missing quotation among the first
    ``n_series`` series of SERIES, or None when all of them are present."""
    gaps = np.argwhere(np.isnan(table.by_series()[:, :n_series]).any(axis=2))
    if not gaps.size:
        return None
    i, s = gaps[0].tolist()
    return table.labels[i], SERIES[s]


# ---------------------------------------------------------------------------
# Feature vectors
# ---------------------------------------------------------------------------

HPL_KINDS = ("difference", "ratio")


@dataclass
class FeatureSet(_WeekLabels):
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
    def raw_names(self) -> tuple[str, ...]:
        return RAW_COLUMNS

    @property
    def raw_matrix(self) -> np.ndarray:
        """Raw (unstandardized) values incl. hpl, for per-class means."""
        return np.hstack([self.base, self.hpl])


def build_features(
    table: QuotationTable,
    include_hpl: bool = True,
    hpl_kind: str = "difference",
) -> FeatureSet:
    """Turn a complete QuotationTable into standardized feature vectors.

    Requires imputed (complete) data. Standardization is a global z-score
    over the whole dataset; a zero-variance coordinate is an error.
    """
    if not len(table):
        raise ValidationError("no data rows")
    if hpl_kind not in HPL_KINDS:
        raise ValidationError(f"hpl_kind {hpl_kind!r} is not one of {HPL_KINDS}")
    gap = _first_gap(table, len(SERIES))
    if gap is not None:
        raise ValidationError(f"week {gap[0]} has missing values; run imputation first")

    cells = table.by_series()
    poa, lgs, hoa = cells[:, 0], cells[:, 1], cells[:, 2]  # each (n, 2)
    avg = (poa + lgs) / 2.0
    hpl = hoa - avg if hpl_kind == "difference" else hoa / avg

    base = table.values
    if include_hpl:
        raw = np.hstack([base, hpl])
        names = RAW_COLUMNS
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
        years=table.years,
        weeks=table.weeks,
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
class SpreadSeries(_WeekLabels):
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


def compute_spread(
    table: QuotationTable, aggregation: str = "mean"
) -> SpreadSeries:
    """Per week: max minus min of the three gold-silver prices, per quotation
    day, aggregated to one weekly value (default: mean of the two days)."""
    if aggregation not in SPREAD_AGGREGATIONS:
        raise ValidationError(
            f"spread aggregation {aggregation!r} is not one of {SPREAD_AGGREGATIONS}"
        )
    gap = _first_gap(table, len(GOLD_SILVER_SERIES))
    if gap is not None:
        raise ValidationError(f"week {gap[0]} misses a {gap[1]} quotation; impute first")

    prices = table.by_series()[:, : len(GOLD_SILVER_SERIES)]  # (n, 3, 2)
    per_day = prices.max(axis=1) - prices.min(axis=1)  # (n, 2)
    years, wnums = table.years, table.weeks
    idx = np.arange(len(table))
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

def write_features_csv(fs: FeatureSet, target) -> None:
    """Write the imputed quotations of ``fs`` in the ingestion format."""
    write_dataset(QuotationTable(years=fs.years, weeks=fs.weeks, values=fs.base), target)


def write_spread_csv(spread: SpreadSeries, target) -> None:
    write_csv(target, ["week_index", "year", "week", "spread"], _table_rows(
        (spread.t_index, spread.years, spread.weeks), spread.values[:, None]
    ))


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
    annotations; keys that are not init fields of a record are ignored.
    Each value must fit its field's type: an int fits a float, a bool fits
    no number, None fits only ``X | None``, a tuple takes a list (of its
    length, unless it is ``tuple[X, ...]``) and an array takes numbers;
    else a TypeError names the field path and the value, e.g.
    ``probabilities: offset: '1' is not int``."""
    return _decoder(cls)(value)


def _check(value, fits: bool, expected: str):
    """``value`` when it ``fits``; else a TypeError naming it."""
    if not fits:
        raise TypeError(f"{reprlib.repr(value)} is not {expected}")
    return value


def _array(value) -> np.ndarray:
    arr = np.array(value)
    _check(value, arr.dtype.kind in "biuf", "an array of numbers")
    return arr


@functools.cache
def _decoder(tp):
    """A function checking the JSON form of type ``tp`` and turning it back
    into ``tp`` (a scalar is returned as given)."""
    if tp is np.ndarray:
        return _array
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = [(f.name, _decoder(hints[f.name])) for f in dataclasses.fields(tp) if f.init]

        def record(d):
            _check(d, isinstance(d, dict), f"a {tp.__name__} record")
            kwargs = {}
            for name, dec in fields:
                try:
                    kwargs[name] = dec(d[name])
                except TypeError as exc:
                    raise TypeError(f"{name}: {exc}") from None
            return tp(**kwargs)
        return record
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:  # X | None
            inner = _decoder(members[0])
            return lambda v: None if v is None else inner(v)
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
            return lambda v: tuple(map(item, _check(v, isinstance(v, (list, tuple)), "a list")))
        items = [_decoder(a) for a in args]
        n = len(items)
        return lambda v: tuple(dec(x) for dec, x in zip(items, _check(
            v, isinstance(v, (list, tuple)) and len(v) == n, f"a list of {n} items"
        )))
    if origin is dict:
        key, item = args[0], _decoder(args[1])  # JSON object keys are strings
        return lambda v: {
            key(k): item(x) for k, x in _check(v, isinstance(v, dict), "an object").items()
        }
    kinds = (int, float) if tp is float else tp
    return lambda v: _check(
        v, isinstance(v, kinds) and (tp is bool or not isinstance(v, bool)), tp.__name__
    )
