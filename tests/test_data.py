import io

import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from bimetal.data import (
    QuotationWeek,
    build_features,
    compute_spread,
    SpreadSeries,
    from_json,
    impute_missing,
    read_features,
    to_json,
    write_dataset,
    write_features,
    write_spread_csv,
)
from bimetal.errors import ImputationError, ParseError, ValidationError

from conftest import make_csv, make_week, parse_csv, synthetic_rows


# ---------------------------------------------------------------------------
# parse_dataset
# ---------------------------------------------------------------------------

def test_parse_full_row():
    weeks = parse_csv(make_csv(synthetic_rows(3)))
    assert len(weeks) == 3
    assert weeks[0].year == 1821 and weeks[0].week == 1
    assert all(wk.is_complete() for wk in weeks)


def test_parse_missing_cell_marked():
    # poa friday is value-column index 1
    weeks = parse_csv(make_csv(synthetic_rows(2, missing={(0, 1)})))
    assert weeks[0].value("poa", "friday") is None
    assert weeks[0].value("poa", "tuesday") is not None
    assert weeks[1].is_complete()


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


def test_parse_nonpositive_price():
    rows = synthetic_rows(1)
    rows[0][4] = -3.0
    with pytest.raises(ValidationError, match="non-positive"):
        parse_csv(make_csv(rows))


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


def test_parse_bad_header():
    with pytest.raises(ParseError, match="unexpected header"):
        parse_csv(make_csv([], header=["year", "week", "nope"]))


def test_parse_week_out_of_calendar_range():
    rows = synthetic_rows(1)
    rows[0][1] = 54
    with pytest.raises(ValidationError, match="53"):
        parse_csv(make_csv(rows))


def test_roundtrip_preserves_cells():
    src = make_csv(synthetic_rows(12, seed=3, missing={(2, 5), (7, 0)}))
    weeks = parse_csv(src)
    buf = io.StringIO()
    write_dataset(weeks, buf)
    assert parse_csv(buf.getvalue()) == weeks


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
    weeks = _column_track([15.70, None, 15.74])
    out, report = impute_missing(weeks)
    assert out[1].value("poa", "tuesday") == pytest.approx(15.72)
    linear = [c for c in report if c.series == "poa" and c.day == "tuesday"]
    assert len(linear) == 1 and linear[0].method == "linear"
    assert linear[0].week_index == 1


def test_impute_backfill_at_start():
    weeks = _column_track([None, None, 15.80, 15.82])
    out, report = impute_missing(weeks)
    assert out[0].value("poa", "tuesday") == pytest.approx(15.80)
    assert out[1].value("poa", "tuesday") == pytest.approx(15.80)
    methods = {c.method for c in report if c.series == "poa" and c.day == "tuesday"}
    assert methods == {"backfill"}


def test_impute_forwardfill_at_end():
    weeks = _column_track([15.80, None])
    out, report = impute_missing(weeks)
    assert out[1].value("poa", "tuesday") == pytest.approx(15.80)
    assert report[0].method == "forwardfill"


def test_impute_gap_above_max_gap_errors():
    weeks = _column_track([15.7, None, None, None, None, None, 15.8])
    with pytest.raises(ImputationError, match=r"poa \(tuesday\).*5 consecutive"):
        impute_missing(weeks, max_gap=4)
    out, _ = impute_missing(weeks, max_gap=5)
    assert all(wk.is_complete() for wk in out)


def test_impute_complete_data_is_noop(small_weeks):
    out, report = impute_missing(small_weeks)
    assert report == []
    assert out == small_weeks


# ---------------------------------------------------------------------------
# build_features
# ---------------------------------------------------------------------------

def test_hpl_difference_example():
    # hoa=15.9, poa=15.8, lgs=15.7 on both days -> hpl = +0.15 each day
    weeks = [
        make_week(1821, 1, poa=15.8, lgs=15.7, hoa=15.9),
        make_week(1821, 2, poa=15.6, lgs=15.5, hoa=15.4, lpv=25.1, hlv=13.2, phv=1.8),
    ]
    fs = build_features(weeks)
    assert_allclose(fs.hpl[0], [0.15, 0.15])
    assert_allclose(fs.hpl[1], [15.4 - 15.55, 15.4 - 15.55])


def test_hpl_ratio_switch():
    weeks = [
        make_week(1821, 1, poa=15.8, lgs=15.7, hoa=15.9),
        make_week(1821, 2, poa=15.0, lgs=15.2, hoa=15.4, lpv=25.3, hlv=13.4, phv=1.8),
    ]
    fs = build_features(weeks, hpl_kind="ratio")
    assert_allclose(fs.hpl[0, 0], 15.9 / 15.75)


def test_zero_variance_errors():
    weeks = [make_week(1821, w, poa=15.8, lgs=15.7, hoa=15.9) for w in (1, 2, 3)]
    with pytest.raises(ValidationError, match="zero variance"):
        build_features(weeks)


def test_standardization_moments(small_weeks):
    fs = build_features(small_weeks)
    assert fs.standardized.shape == (30, 14)
    assert_allclose(fs.standardized.mean(axis=0), 0.0, atol=1e-9)
    assert_allclose(fs.standardized.var(axis=0), 1.0, atol=1e-9)


def test_features_without_hpl(small_weeks):
    fs = build_features(small_weeks, include_hpl=False)
    assert fs.standardized.shape == (30, 12)
    assert fs.feature_names[-1] == "phv_f"
    # hpl is still computed for descriptive tables
    assert fs.hpl.shape == (30, 2)


def test_features_require_complete_data():
    weeks = parse_csv(make_csv(synthetic_rows(3, missing={(1, 3)})))
    with pytest.raises(ValidationError, match="missing"):
        build_features(weeks)


def test_features_serialization_roundtrip(small_weeks, tmp_path):
    fs = build_features(small_weeks)
    write_features(fs, tmp_path / "features.csv", tmp_path / "features.json")
    fs2 = read_features(tmp_path / "features.csv", tmp_path / "features.json")
    assert_allclose(fs2.standardized, fs.standardized)
    assert fs2.feature_names == fs.feature_names

    lines = (tmp_path / "features.csv").read_text().splitlines()
    assert len(lines) == 31
    assert lines[0].split(",")[:3] == ["year", "week", "poa_t"]
    assert "std_hpl_f" in lines[0]


# ---------------------------------------------------------------------------
# compute_spread
# ---------------------------------------------------------------------------

def test_spread_example():
    weeks = [make_week(1821, 1, poa=15.8, lgs=15.7, hoa=15.9)]
    spread = compute_spread(weeks)
    assert_allclose(spread.values, [0.2])


def test_spread_zero_iff_equal():
    weeks = [make_week(1821, 1, poa=15.8, lgs=15.8, hoa=15.8)]
    assert compute_spread(weeks).values[0] == 0.0


def test_spread_aggregations():
    wk = QuotationWeek(
        year=1821,
        week=1,
        values={
            "poa": (15.8, 15.6),
            "lgs": (15.7, 15.7),
            "hoa": (15.9, 16.0),
            "lpv": (25.0, 25.0),
            "hlv": (13.0, 13.0),
            "phv": (1.9, 1.9),
        },
    )
    # tuesday spread 0.2, friday spread 0.4
    assert compute_spread([wk], "tuesday").values[0] == pytest.approx(0.2)
    assert compute_spread([wk], "friday").values[0] == pytest.approx(0.4)
    assert compute_spread([wk], "mean").values[0] == pytest.approx(0.3)
    per_day = compute_spread([wk], "per_day")
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
    def weeks_from(ts, offset=0.0):
        return [
            make_week(1821, i + 1, poa=a + offset, lgs=b + offset, hoa=c + offset)
            for i, (a, b, c) in enumerate(ts)
        ]

    base = compute_spread(weeks_from(triples)).values
    permuted = compute_spread(
        weeks_from([tuple(t[p] for p in perm) for t in triples])
    ).values
    shifted = compute_spread(weeks_from(triples, offset=shift)).values
    assert_allclose(permuted, base, atol=1e-12)
    assert_allclose(shifted, base, atol=1e-9)
    assert (base >= 0).all()


def test_spread_length_equals_rows(small_weeks):
    assert len(compute_spread(small_weeks)) == len(small_weeks)


def test_spread_serialization_roundtrip(small_weeks):
    spread = compute_spread(small_weeks)
    again = from_json(SpreadSeries, to_json(spread))
    assert_allclose(again.values, spread.values)
    assert again.aggregation == "mean"

    buf = io.StringIO()
    write_spread_csv(spread, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "week_index,year,week,spread"
    assert len(lines) == len(small_weeks) + 1
