import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bimetal import data
from bimetal.data import (
    HEADER,
    HPL_KINDS,
    PRICE_MAX,
    PRICE_MIN,
    VALUE_COLUMNS,
    ImputedCell,
    build_features,
    compute_spread,
    SpreadSeries,
    from_json,
    impute_missing,
    parse_dataset,
    to_json,
    write_dataset,
    write_features_csv,
    write_spread_csv,
    write_table,
)
from bimetal.errors import ImputationError, ParseError, ValidationError
from bimetal.som import MacroClassification

from conftest import (
    assert_tables_equal, make_csv, make_table, parse_csv, synthetic_rows,
)
from oracles import seed_week_derivations

POA_T = VALUE_COLUMNS.index("poa_t")


# ---------------------------------------------------------------------------
# parse_dataset
# ---------------------------------------------------------------------------

def test_parse_full_row():
    table = parse_csv(make_csv(synthetic_rows(3)))
    assert len(table) == 3
    assert table.years[0] == 1821 and table.weeks[0] == 1
    assert not np.isnan(table.values).any()


def test_parse_missing_cell_marked():
    table = parse_csv(make_csv(synthetic_rows(2, missing={(0, 1)})))
    assert np.isnan(table.values[0, VALUE_COLUMNS.index("poa_f")])
    assert not np.isnan(table.values[0, POA_T])
    assert not np.isnan(table.values[1]).any()


def test_parse_weeks_out_of_order():
    rows = synthetic_rows(2)
    rows[0][1], rows[1][1] = 2, 1
    with pytest.raises(ValidationError, match="out of order"):
        parse_csv(make_csv(rows))


def test_parse_duplicate_week():
    rows = synthetic_rows(2)
    rows[1][0], rows[1][1] = rows[0][0], rows[0][1]
    with pytest.raises(ValidationError, match="duplicate week 1821/1"):
        parse_csv(make_csv(rows))


def _outside(cell):
    return re.escape(f"line 2: price {cell} in column poa_t is outside [1e-73, 1e+73]") + "$"


def test_parse_nonpositive_price():
    rows = synthetic_rows(1)
    rows[0][4] = -3.0
    with pytest.raises(ValidationError, match="price -3.0 in column lgs_t is outside"):
        parse_csv(make_csv(rows))


# a literal nan is refused too: a table cannot tell it from a gap
@pytest.mark.parametrize("cell", [
    "nan", "inf", "0", "-1", "1e-310", "1e-400", "1.5e308",
    repr(math.nextafter(PRICE_MIN, 0)), repr(math.nextafter(PRICE_MAX, math.inf)),
], ids=[
    "nan-non-finite", "inf-non-finite", "0-non-positive", "-1-non-positive",
    "subnormal", "underflows-to-0", "near-float-max", "just-below-min", "just-above-max",
])
def test_parse_bad_price_names_its_problem(cell):
    rows = synthetic_rows(1)
    rows[0][2 + POA_T] = cell
    with pytest.raises(ValidationError, match=_outside(cell)):
        parse_csv(make_csv(rows))


def test_parse_accepts_a_price_at_either_bound():
    rows = synthetic_rows(2)
    rows[0][2 + POA_T], rows[1][2 + POA_T] = repr(PRICE_MIN), repr(PRICE_MAX)
    assert parse_csv(make_csv(rows)).values[:, POA_T].tolist() == [PRICE_MIN, PRICE_MAX]


def test_parse_malformed_row_reports_line():
    text = make_csv(synthetic_rows(2))
    text = text.replace("\n", "\n", 1)
    lines = text.splitlines()
    lines[2] = lines[2] + ",extra"
    with pytest.raises(ParseError, match="line 3"):
        parse_csv("\n".join(lines))


def test_parse_bad_price_cell_reports_line_and_column():
    rows = synthetic_rows(1)
    rows[0][2] = "abc"
    with pytest.raises(ParseError, match="line 2.*poa_t"):
        parse_csv(make_csv(rows))


def test_parse_skips_blank_rows_and_still_counts_their_lines():
    rows = synthetic_rows(3, seed=1)
    header, *lines = make_csv(rows).splitlines()
    blanks = ["", "," * (len(HEADER) - 1)]
    text = "\n".join([header, lines[0], *blanks, *lines[1:]]) + "\n"
    assert_tables_equal(parse_csv(text), parse_csv(make_csv(rows)))
    with pytest.raises(ParseError, match="line 6: bad price cell 'abc' in column poa_t"):
        parse_csv(text.replace(lines[2], lines[2].replace(str(rows[2][2]), "abc", 1)))


def test_parse_bad_year_or_week_cell_reports_line():
    rows = synthetic_rows(2)
    rows[1][1] = "2a"
    with pytest.raises(ParseError, match="line 3: bad year/week cell"):
        parse_csv(make_csv(rows))


def test_parse_empty_input():
    with pytest.raises(ParseError, match="empty input: missing header row"):
        parse_csv("")


def test_parse_bad_header():
    with pytest.raises(ParseError, match="unexpected header"):
        parse_csv(make_csv([], header=["year", "week", "nope"]))


def test_parse_non_utf8_bytes(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xff\xfe" + make_csv(synthetic_rows(2)).encode())
    with pytest.raises(ParseError, match="not UTF-8 text"):
        parse_dataset(path)


def test_parse_reads_past_a_utf8_byte_order_mark(tmp_path):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark."""
    text = make_csv(synthetic_rows(3, seed=2, missing={(1, 4)}))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert_tables_equal(parse_dataset(path), parse_csv(text))


def test_parse_non_utf8_bytes_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "data.csv"
    text = make_csv(synthetic_rows(2)).replace("1821", "18\xe921", 1)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text"):
        parse_dataset(path)


def test_parse_week_out_of_calendar_range():
    rows = synthetic_rows(1)
    rows[0][1] = 54
    with pytest.raises(ValidationError, match="53"):
        parse_csv(make_csv(rows))


def test_parse_memory_is_a_small_multiple_of_the_values(tmp_path):
    """A list of 12 Python floats per week took about 7x the table's bytes."""
    path = tmp_path / "data.csv"
    path.write_text(make_csv(synthetic_rows(2078, seed=5, missing={(4, 3)})))
    tracemalloc.start()
    try:
        table = parse_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.shape == (2078, 12) and np.isnan(table.values[4, 3])
    assert peak < 4 * table.values.nbytes, f"{peak} vs {table.values.nbytes} bytes"


def test_parse_header_only_is_an_empty_table():
    table = parse_csv(make_csv([]))
    assert table.values.shape == (0, 12) and table.values.dtype == float
    assert table.years.shape == table.weeks.shape == (0,)


def test_roundtrip_preserves_cells():
    src = make_csv(synthetic_rows(12, seed=3, missing={(2, 5), (7, 0)}))
    table = parse_csv(src)
    buf = io.StringIO()
    write_dataset(table, buf)
    assert_tables_equal(parse_csv(buf.getvalue()), table)


@pytest.mark.parametrize("block", [1, 2, 256])
def test_write_table_cells(block, monkeypatch):
    """Integers by str, floats by repr ("" for NaN), strings as given, in
    the same bytes whatever the number of rows formatted at a time."""
    monkeypatch.setattr(data, "_BLOCK_ROWS", block)
    buf = io.StringIO()
    write_table(buf, ["n", "x", "s"], [
        np.array([3, -1, 12]), np.array([0.1, np.nan, 1 / 3]), ["a", "b,c", ""],
    ])
    assert buf.getvalue() == 'n,x,s\n3,0.1,a\n-1,,"b,c"\n12,0.3333333333333333,\n'


# ---------------------------------------------------------------------------
# impute_missing
# ---------------------------------------------------------------------------

def _column_track(values):
    """Rows where poa tuesday follows `values` (None = missing)."""
    rows = synthetic_rows(len(values), seed=1)
    for i, v in enumerate(values):
        rows[i][2] = v
    return parse_csv(make_csv(rows))


def test_impute_linear_midpoint():
    table = _column_track([15.70, None, 15.74])
    out, report = impute_missing(table)
    assert out.values[1, POA_T] == pytest.approx(15.72)
    linear = [c for c in report if c.series == "poa" and c.day == "tuesday"]
    assert len(linear) == 1 and linear[0].method == "linear"
    assert linear[0].week_index == 1


def test_impute_backfill_at_start():
    table = _column_track([None, None, 15.80, 15.82])
    out, report = impute_missing(table)
    assert out.values[0, POA_T] == pytest.approx(15.80)
    assert out.values[1, POA_T] == pytest.approx(15.80)
    methods = {c.method for c in report if c.series == "poa" and c.day == "tuesday"}
    assert methods == {"backfill"}


def test_impute_forwardfill_at_end():
    table = _column_track([15.80, None])
    out, report = impute_missing(table)
    assert out.values[1, POA_T] == pytest.approx(15.80)
    assert report[0].method == "forwardfill"


def test_impute_gap_above_max_gap_errors():
    table = _column_track([15.7, None, None, None, None, None, 15.8])
    with pytest.raises(ImputationError, match=r"poa \(tuesday\).*5 consecutive"):
        impute_missing(table, max_gap=4)
    out, _ = impute_missing(table, max_gap=5)
    assert not np.isnan(out.values).any()


def test_impute_complete_data_is_noop(small_table):
    out, report = impute_missing(small_table)
    assert report == []
    assert_tables_equal(out, small_table)


def test_impute_report_across_columns():
    """Gaps at the start, inside and at the end of four columns: the report
    runs column by column in VALUE_COLUMNS order, each column in week order,
    and every linear fill is the interpolation formula's float."""
    missing = {
        (0, 0), (1, 0),          # poa_t: leading gap
        (2, 3), (3, 3), (4, 3), (5, 3),  # lgs_f: interior gap
        (7, 4), (6, 4), (2, 4),  # hoa_t: interior gap, then trailing gap
        (7, 11), (0, 11), (4, 11), (5, 11),  # phv_f: all three kinds
    }
    table = parse_csv(make_csv(synthetic_rows(8, seed=5, missing=missing)))
    obs = table.values.tolist()
    out, report = impute_missing(table)

    def cell(k, column, value, method):
        series, day = column.split("_")
        return ImputedCell(
            week_index=k, year=1821, week=k + 1, series=series,
            day={"t": "tuesday", "f": "friday"}[day], value=value, method=method,
        )

    def linear(column, k, i, j):
        """Fill of week k in the gap [i, j) of ``column``."""
        c = VALUE_COLUMNS.index(column)
        lo, hi, span = obs[i - 1][c], obs[j][c], j - (i - 1)
        return lo + (hi - lo) * (k - (i - 1)) / span

    poa_t, lgs_f, hoa_t, phv_f = (VALUE_COLUMNS.index(c)
                                  for c in ("poa_t", "lgs_f", "hoa_t", "phv_f"))
    assert report == [
        cell(0, "poa_t", obs[2][poa_t], "backfill"),
        cell(1, "poa_t", obs[2][poa_t], "backfill"),
        cell(2, "lgs_f", linear("lgs_f", 2, 2, 6), "linear"),
        cell(3, "lgs_f", linear("lgs_f", 3, 2, 6), "linear"),
        cell(4, "lgs_f", linear("lgs_f", 4, 2, 6), "linear"),
        cell(5, "lgs_f", linear("lgs_f", 5, 2, 6), "linear"),
        cell(2, "hoa_t", linear("hoa_t", 2, 2, 3), "linear"),
        cell(6, "hoa_t", obs[5][hoa_t], "forwardfill"),
        cell(7, "hoa_t", obs[5][hoa_t], "forwardfill"),
        cell(0, "phv_f", obs[1][phv_f], "backfill"),
        cell(4, "phv_f", linear("phv_f", 4, 4, 6), "linear"),
        cell(5, "phv_f", linear("phv_f", 5, 4, 6), "linear"),
        cell(7, "phv_f", obs[6][phv_f], "forwardfill"),
    ]
    for c in report:
        assert all(type(getattr(c, f)) is int for f in ("week_index", "year", "week"))
        assert type(c.value) is float
        assert out.values[c.week_index, VALUE_COLUMNS.index(
            f"{c.series}_{c.day[0]}")] == c.value
    filled = np.zeros(table.values.shape, dtype=bool)
    filled[tuple(np.array(sorted(missing)).T)] = True
    assert_array_equal(out.values[~filled], table.values[~filled])
    assert not np.isnan(out.values).any()


# ---------------------------------------------------------------------------
# build_features
# ---------------------------------------------------------------------------

def test_hpl_difference_example():
    # hoa=15.9, poa=15.8, lgs=15.7 on both days -> hpl = +0.15 each day
    table = make_table(
        dict(poa=15.8, lgs=15.7, hoa=15.9),
        dict(poa=15.6, lgs=15.5, hoa=15.4, lpv=25.1, hlv=13.2, phv=1.8),
    )
    fs = build_features(table)
    assert_allclose(fs.hpl[0], [0.15, 0.15])
    assert_allclose(fs.hpl[1], [15.4 - 15.55, 15.4 - 15.55])


def test_hpl_ratio_switch():
    table = make_table(
        dict(poa=15.8, lgs=15.7, hoa=15.9),
        dict(poa=15.0, lgs=15.2, hoa=15.4, lpv=25.3, hlv=13.4, phv=1.8),
    )
    fs = build_features(table, hpl_kind="ratio")
    assert_allclose(fs.hpl[0, 0], 15.9 / 15.75)


def test_zero_variance_errors():
    table = make_table(*[dict(poa=15.8, lgs=15.7, hoa=15.9)] * 3)
    with pytest.raises(ValidationError, match="zero variance"):
        build_features(table)


@pytest.mark.parametrize("price", [1e200, -1.0, np.inf])
def test_a_table_refuses_a_price_outside_its_domain_naming_week_and_column(price):
    # a price whose squared deviation passes the float range, one below zero, one infinite
    with pytest.raises(ValidationError) as err:
        make_table(dict(poa=15.8, lgs=15.7, hoa=15.9), dict(poa=15.6, lgs=15.9, hoa=price))
    assert str(err.value) == (
        f"week 1821/02: price {price!r} in column hoa_t is outside [1e-73, 1e+73]"
    )


def test_a_table_names_the_first_week_holding_a_price_outside_its_domain():
    # week 1's Friday cell comes before week 2's first column
    with pytest.raises(ValidationError) as err:
        make_table(dict(poa=15.8, lgs=15.7, hoa=(15.9, 1e200)), dict(poa=1e200, lgs=15.9, hoa=1e200))
    assert str(err.value) == "week 1821/01: price 1e+200 in column hoa_f is outside [1e-73, 1e+73]"


def test_a_table_accepts_a_gap_and_either_bound():
    table = make_table(dict(poa=(PRICE_MIN, np.nan), lgs=15.7, hoa=PRICE_MAX))
    assert np.isnan(table.values).sum() == 1


def test_standardization_moments(small_table):
    fs = build_features(small_table)
    assert fs.standardized.shape == (30, 14)
    assert_allclose(fs.standardized.mean(axis=0), 0.0, atol=1e-9)
    assert_allclose(fs.standardized.var(axis=0), 1.0, atol=1e-9)


def test_features_without_hpl(small_table):
    fs = build_features(small_table, include_hpl=False)
    assert fs.standardized.shape == (30, 12)
    # the z-score of the 12 quotations alone
    values = fs.table.values
    assert_array_equal(fs.standardized, (values - values.mean(axis=0)) / values.std(axis=0))
    # hpl is still computed for descriptive tables
    assert fs.hpl.shape == (30, 2)


def test_features_require_complete_data():
    table = parse_csv(make_csv(synthetic_rows(3, missing={(1, 3)})))
    with pytest.raises(ValidationError, match="missing"):
        build_features(table)


def test_features_serialization_roundtrip(small_table, tmp_path):
    """features.csv is the table in the ingestion format; building features
    from it with the run's flags gives the FeatureSet back."""
    fs = build_features(small_table, hpl_kind="ratio")
    write_features_csv(fs, tmp_path / "features.csv")
    fs2 = build_features(parse_dataset(tmp_path / "features.csv"), hpl_kind="ratio")
    assert_array_equal(fs2.standardized, fs.standardized)
    assert_array_equal(fs2.hpl, fs.hpl)

    lines = (tmp_path / "features.csv").read_text().splitlines()
    assert len(lines) == 31
    assert lines[0].split(",") == list(HEADER)
    text = io.StringIO()
    write_dataset(small_table, text)
    assert (tmp_path / "features.csv").read_text() == text.getvalue()


# ---------------------------------------------------------------------------
# compute_spread
# ---------------------------------------------------------------------------

def test_spread_example():
    table = make_table(dict(poa=15.8, lgs=15.7, hoa=15.9))
    spread = compute_spread(table)
    assert_allclose(spread.values, [0.2])


def test_spread_zero_iff_equal():
    table = make_table(dict(poa=15.8, lgs=15.8, hoa=15.8))
    assert compute_spread(table).values[0] == 0.0


def test_spread_requires_gold_silver_quotations():
    # a missing exchange rate does not stop the spread; a missing price does
    table = make_table(dict(poa=15.8, lgs=15.7, hoa=15.9), dict(poa=15.6, lgs=15.5, hoa=15.4))
    table.values[0, VALUE_COLUMNS.index("phv_t")] = np.nan
    assert len(compute_spread(table)) == 2
    table.values[1, VALUE_COLUMNS.index("hoa_f")] = np.nan
    table.values[1, VALUE_COLUMNS.index("lgs_t")] = np.nan
    with pytest.raises(ValidationError, match="week 1821/02 misses a lgs quotation"):
        compute_spread(table)


def test_spread_aggregations():
    table = make_table({"poa": (15.8, 15.6), "lgs": (15.7, 15.7), "hoa": (15.9, 16.0)})
    # tuesday spread 0.2, friday spread 0.4
    assert compute_spread(table, "tuesday").values[0] == pytest.approx(0.2)
    assert compute_spread(table, "friday").values[0] == pytest.approx(0.4)
    assert compute_spread(table, "mean").values[0] == pytest.approx(0.3)
    per_day = compute_spread(table, "per_day")
    assert_allclose(per_day.values, [0.2, 0.4])
    assert per_day.t_index.tolist() == [0, 0]


@given(
    st.lists(
        st.tuples(
            st.floats(1.0, 100.0), st.floats(1.0, 100.0), st.floats(1.0, 100.0)
        ),
        min_size=1,
        max_size=8,
    ),
    st.permutations([0, 1, 2]),
    st.floats(0.0, 50.0),
)
def test_spread_permutation_and_shift_invariance(triples, perm, shift):
    def table_from(ts, offset=0.0):
        return make_table(*[
            dict(poa=a + offset, lgs=b + offset, hoa=c + offset) for a, b, c in ts
        ])

    base = compute_spread(table_from(triples)).values
    permuted = compute_spread(
        table_from([tuple(t[p] for p in perm) for t in triples])
    ).values
    shifted = compute_spread(table_from(triples, offset=shift)).values
    assert_allclose(permuted, base, atol=1e-12)
    assert_allclose(shifted, base, atol=1e-9)
    assert (base >= 0).all()


@pytest.mark.parametrize("hpl_kind", HPL_KINDS)
def test_table_derivations_match_per_cell_loop(hpl_kind):
    """hpl and every spread aggregation are the per-cell floats, bit for bit."""
    table = parse_csv(make_csv(synthetic_rows(60, seed=8)))
    per_day, hpl = seed_week_derivations(table.values, hpl_kind)
    assert build_features(table, hpl_kind=hpl_kind).hpl.tolist() == hpl.tolist()
    for aggregation, want in (("mean", per_day.mean(axis=1)), ("tuesday", per_day[:, 0]),
                              ("friday", per_day[:, 1]), ("per_day", per_day.reshape(-1))):
        assert compute_spread(table, aggregation).values.tolist() == want.tolist()


def test_spread_length_equals_rows(small_table):
    assert len(compute_spread(small_table)) == len(small_table)


def _classification_json(**changes):
    """The JSON form of a small MacroClassification, with ``changes``."""
    return {"k": 2, "node_to_class": [1, 2], "linkage_history": [[0, 1, 0.5, 2]],
            "week_to_class": [1, 1, 1, 2, 2, 2, 2],
            "class_means": {"1": {"x0": 0.5}, "2": {"x0": 1.5}},
            "intervals": [[0, 2, 1], [3, 6, 2]],
            "class_counts": {"1": 3, "2": 4}, **changes}


@pytest.mark.parametrize("changes, message", [
    pytest.param({"linkage_history": [[0, 1, 0.5]]},
                 "linkage_history: [0, 1, 0.5] is not a list of 4 items", id="short-row"),
    pytest.param({"linkage_history": [[0, 1, "0.5", 2]]},
                 "linkage_history: '0.5' is not float", id="string-height"),
    pytest.param({"k": "2"}, "k: '2' is not int", id="string-int"),
    pytest.param({"k": True}, "k: True is not int", id="bool-int"),
    pytest.param({"k": None}, "k: None is not int", id="none-int"),
    pytest.param({"class_counts": {"1": "3"}}, "class_counts: '3' is not int",
                 id="string-count"),
    pytest.param({"node_to_class": ["a", "b"]},
                 "node_to_class: ['a', 'b'] is not an array of numbers", id="string-array"),
    pytest.param({"intervals": "0,1,1"}, "intervals: '0,1,1' is not a list", id="string-tuple"),
])
def test_from_json_rejects_a_mistyped_value_naming_its_field(changes, message):
    with pytest.raises(TypeError) as err:
        from_json(MacroClassification, _classification_json(**changes))
    assert str(err.value) == message


def test_spread_serialization_roundtrip(small_table):
    spread = compute_spread(small_table)
    again = from_json(SpreadSeries, to_json(spread))
    assert_allclose(again.values, spread.values)
    assert again.t_index.tolist() == spread.t_index.tolist()

    buf = io.StringIO()
    write_spread_csv(spread, small_table, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "week_index,year,week,spread"
    assert len(lines) == len(small_table) + 1


@pytest.mark.parametrize("aggregation", ["mean", "per_day"])
def test_spread_csv_names_each_observation_by_its_tables_week(small_table, aggregation):
    """The year and week cells of spread.csv are the table's, at each
    observation's week index: twice per week with per_day."""
    spread = compute_spread(small_table, aggregation)
    buf = io.StringIO()
    write_spread_csv(spread, small_table, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    per_week = 2 if aggregation == "per_day" else 1
    weeks = [i for i in range(len(small_table)) for _ in range(per_week)]
    assert [[int(c) for c in row[:3]] for row in rows] == [
        [i, small_table.years[i], small_table.weeks[i]] for i in weeks
    ]
    assert [float(row[3]) for row in rows] == spread.values.tolist()
