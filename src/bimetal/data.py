"""Ingestion and transformation of twice-weekly quotation records.

The raw table carries, per calendar week, Tuesday and Friday quotations for
six series: the gold-silver prices in Paris, London, and Hamburg
(poa, lgs, hoa) and the three cross exchange rates (lpv, hlv, phv).
This module parses and validates that table into one QuotationTable, a
(weeks x 12) array with NaN for a missing quotation and every present price
in [PRICE_MIN, PRICE_MAX], the domain that keeps all arithmetic on it
finite; fills the missing cells; and derives the two model inputs from it:
the per-week feature vectors used by the SOM periodization and the weekly
spread series used by the switching and change-point models. It also holds
the one JSON codec of the package: ``to_json`` writes every JSON record and
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
from array import array
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

# A quotation's domain: PRICE_MIN <= price <= PRICE_MAX. Everything derived
# from a table is arithmetic on its prices, and these bounds keep it finite
# for a table of up to 2**53 weeks, more than any memory holds:
# - poa + lgs is at most 2 * PRICE_MAX;
# - a price, a spread or a difference hpl deviates from its column's mean by
#   less than 2 * PRICE_MAX, so n squared deviations sum below n * 4 * PRICE_MAX**2;
# - a ratio hpl lies within PRICE_MAX / PRICE_MIN of its column's mean, so
#   n squared deviations sum below n * (PRICE_MAX / PRICE_MIN)**2.
# The last is the tightest: bounds 10**-k and 10**k keep 2**53 * 10**(4k)
# below the float maximum, 1.8e308, for k <= 73. Historical prices (about
# 1.9 to 25) sit inside by more than 70 orders of magnitude.
PRICE_MIN, PRICE_MAX = 1e-73, 1e73
_DOMAIN = f"[{PRICE_MIN!r}, {PRICE_MAX!r}]"


def check_series(series) -> np.ndarray:
    """The domain of a series that the switching and change-point models take,
    where their sums of squares stay finite for up to 2**53 values: a non-empty
    1-d float array, each |value| <= PRICE_MAX. Every spread lies in it."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.shape[0] == 0:
        raise ValidationError(f"series must be a non-empty 1-d array, got shape {series.shape}")
    inside = np.abs(series) <= PRICE_MAX  # False for NaN as well
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValidationError(f"series[{i}] = {series[i].item()!r} is non-finite "
                              f"or outside [-{PRICE_MAX!r}, {PRICE_MAX!r}]")
    return series


@dataclass
class QuotationTable:
    """The raw quotation table, one row per calendar week.

    ``values`` holds each week's 12 quotations in VALUE_COLUMNS order
    (each series' Tuesday price, then its Friday price); NaN marks a
    missing quotation. Any other price lies in [PRICE_MIN, PRICE_MAX].
    """

    years: np.ndarray   # (n,) int
    weeks: np.ndarray   # (n,) int
    values: np.ndarray  # (n, 12) float

    def __post_init__(self):
        # a NaN, a gap, is neither below nor above the domain
        bad = (self.values < PRICE_MIN) | (self.values > PRICE_MAX)
        if bad.any():
            i, c = np.argwhere(bad)[0].tolist()
            raise ValidationError(f"week {self.labels[i]}: price {self.values[i, c].item()!r} "
                                  f"in column {VALUE_COLUMNS[c]} is outside {_DOMAIN}")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def labels(self) -> list[str]:
        """Each week as "year/week", the week number on two digits."""
        return [f"{y}/{w:02d}" for y, w in zip(self.years.tolist(), self.weeks.tolist())]

    def by_series(self) -> np.ndarray:
        """(n, 6, 2) view of ``values``: week, series (SERIES order), day."""
        return self.values.reshape(-1, len(SERIES), len(DAYS))


@contextmanager
def _stream(target, mode, newline=""):
    """Yield ``target`` when it is already an open stream; otherwise open
    the path it names as UTF-8 text in ``mode`` (read past a leading
    byte-order mark) and close it on exit."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        with open(target, mode, encoding=encoding, newline=newline) as fh:
            yield fh


_BLOCK_ROWS = 256  # rows formatted at a time, so no long table is held whole as text


def write_table(target, header, columns) -> None:
    """Write a header row, then one row per index of the equal-length
    ``columns``, as CSV with "\\n" line ends. A column is an integer array
    (cells by ``str``), a float array (cells by ``repr``, which reads back
    exactly; "" for NaN) or a list of ready-made strings."""
    with _stream(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            writer.writerows(zip(*(_cells(c[lo:lo + _BLOCK_ROWS]) for c in columns)))


def _cells(column) -> list:
    """The cells of one ``write_table`` column."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind == "f":
        return ["" if math.isnan(v) else repr(v) for v in column.tolist()]
    return column.tolist()


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

        # One flat array per column group: no Python object per cell is kept.
        years, weeks, values = array("q"), array("q"), array("d")
        last = None
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
            if last is not None and key <= last:
                if key == last:
                    raise ValidationError(f"line {lineno}: duplicate week {year}/{week}")
                raise ValidationError(
                    f"line {lineno}: weeks out of order ({year}/{week} after "
                    f"{last[0]}/{last[1]})"
                )
            last = key
            years.append(year)
            weeks.append(week)

            for column, cell in zip(VALUE_COLUMNS, row[2:]):
                cell = cell.strip()
                if cell == "":
                    values.append(math.nan)
                    continue
                try:
                    price = float(cell)
                except ValueError:
                    raise ParseError(
                        f"bad price cell {cell!r} in column {column}", line=lineno
                    )
                if not PRICE_MIN <= price <= PRICE_MAX:  # so is nan, which a table takes for a gap
                    raise ValidationError(f"line {lineno}: price {cell} in column "
                                          f"{column} is outside {_DOMAIN}")
                values.append(price)
    return QuotationTable(
        years=np.array(years, dtype=int),
        weeks=np.array(weeks, dtype=int),
        values=np.array(values, dtype=float).reshape(-1, len(VALUE_COLUMNS)),
    )


def write_dataset(table: QuotationTable, target) -> None:
    """Write a QuotationTable back to the ingestion format (round-trips parse)."""
    write_table(target, HEADER, [table.years, table.weeks, *table.values.T])


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
class FeatureSet:
    """The SOM's input: the imputed ``table``, the ``hpl`` pair derived from
    it (one column per quotation day) and ``standardized``, the z-scored
    vectors the map trains on (the 12 quotations, then the hpl pair unless
    it is left out). Class means are read on the raw columns RAW_COLUMNS,
    the table's values then the hpl pair."""

    table: QuotationTable
    hpl: np.ndarray           # (n, 2)
    standardized: np.ndarray  # (n, 14), or (n, 12) without hpl

    def __len__(self) -> int:
        return len(self.table)


def build_features(
    table: QuotationTable,
    include_hpl: bool = True,
    hpl_kind: str = "difference",
) -> FeatureSet:
    """Turn a complete QuotationTable into standardized feature vectors.

    Requires imputed (complete) data. Standardization is a global z-score
    over the whole dataset; a zero-variance coordinate is an error. The
    table's price domain keeps every mean and variance finite.
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

    if include_hpl:
        raw = np.hstack([table.values, hpl])
        names = RAW_COLUMNS
    else:
        raw = table.values
        names = VALUE_COLUMNS

    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    zero = np.flatnonzero(stds == 0.0)
    if zero.size:
        raise ValidationError(
            f"cannot standardize: zero variance in {', '.join(names[i] for i in zero)}"
        )
    return FeatureSet(table=table, hpl=hpl, standardized=(raw - means) / stds)


# ---------------------------------------------------------------------------
# Spread series
# ---------------------------------------------------------------------------

@dataclass
class SpreadSeries:
    """Weekly spread between the highest and lowest gold-silver price.

    ``t_index`` holds the week index of each observation into the table it
    was computed from, which names the weeks; with per_day aggregation each
    week contributes two consecutive observations.
    """

    t_index: np.ndarray
    values: np.ndarray

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
    return SpreadSeries(t_index=idx, values=values)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_features_csv(fs: FeatureSet, target) -> None:
    """Write the imputed quotations of ``fs`` in the ingestion format."""
    write_dataset(fs.table, target)


def write_spread_csv(spread: SpreadSeries, table: QuotationTable, target) -> None:
    """Write each observation of ``spread`` with its week's index, year and
    week number in ``table``, the table it was computed from."""
    idx = spread.t_index
    write_table(target, ["week_index", "year", "week", "spread"],
                [idx, table.years[idx], table.weeks[idx], spread.values])


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
    ``converged: 'true' is not bool``."""
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
