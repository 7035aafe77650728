import io

import numpy as np
import pytest

from bimetal.data import HEADER, SERIES, QuotationTable, parse_dataset


def make_csv(rows, header=None):
    """Build ingestion-format CSV text from row lists ('' marks missing)."""
    lines = [",".join(header or HEADER)]
    for row in rows:
        lines.append(",".join("" if c is None else str(c) for c in row))
    return "\n".join(lines) + "\n"


def parse_csv(text):
    return parse_dataset(io.StringIO(text))


def synthetic_rows(n, seed=0, missing=()):
    """Plausible quotation rows: prices near historic levels, week calendar.

    ``missing`` is a set of (row_index, column_index) pairs (column index
    into the 12 value cells) to blank out.
    """
    rng = np.random.default_rng(seed)
    levels = [15.7, 15.6, 15.8, 25.2, 13.1, 1.92]  # poa lgs hoa lpv hlv phv
    rows = []
    year, week = 1821, 1
    for i in range(n):
        cells = [year, week]
        for s, level in enumerate(levels):
            for d in range(2):
                j = 2 * s + d
                if (i, j) in missing:
                    cells.append(None)
                else:
                    cells.append(round(level + 0.2 * rng.standard_normal(), 4))
        rows.append(cells)
        week += 1
        if week > 52:
            year, week = year + 1, 1
    return rows


@pytest.fixture
def small_table():
    return parse_csv(make_csv(synthetic_rows(30, seed=42)))


def make_table(*weeks):
    """QuotationTable of weeks 1821/01, 1821/02, ...; each week maps a series
    to its price on both days or to a (tuesday, friday) pair. The exchange
    rates default to lpv 25.0, hlv 13.0 and phv 1.9."""
    defaults = {"lpv": 25.0, "hlv": 13.0, "phv": 1.9}
    values = np.array(
        [[np.broadcast_to({**defaults, **wk}[s], 2) for s in SERIES] for wk in weeks],
        dtype=float,
    )
    n = len(weeks)
    return QuotationTable(
        years=np.full(n, 1821), weeks=np.arange(1, n + 1), values=values.reshape(n, -1)
    )


def assert_tables_equal(a, b):
    """Same weeks and the same cells, NaN for NaN."""
    assert a.years.tolist() == b.years.tolist()
    assert a.weeks.tolist() == b.weeks.tolist()
    np.testing.assert_array_equal(a.values, b.values)
