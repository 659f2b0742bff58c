"""Every queries() entry with an oracle_sql() runs at sf0.001 and must
match DuckDB exactly — the local mirror of the driver's correctness gate."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod  # noqa: E402

from .oracle_util import assert_matches_oracle, to_pandas  # noqa: E402

QUERIES = entrymod.queries()
ORACLES = entrymod.oracle_sql()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_query(name, sf_dir):
    assert name in QUERIES, f"oracle_sql has {name} but queries() does not"
    result = QUERIES[name](sf_dir)
    assert_matches_oracle(result, ORACLES[name], sf_dir)


@pytest.mark.parametrize("name", sorted(set(QUERIES) - set(ORACLES)))
def test_rows_only_query(name, sf_dir):
    """Non-SQL-expressible ops still must run and return a stable frame."""
    df = to_pandas(QUERIES[name](sf_dir))
    assert df is not None
    assert len(df.columns) > 0


def test_entry_smoke():
    df = to_pandas(entrymod.entry())
    assert len(df) > 0
    assert set(df.columns) == {"doc_id", "offset", "kind", "text", "media_ref"}


def test_first_50_queries_are_oracle_backed():
    """Only the first 50 queries() entries are checked against DuckDB,
    so every one of them must have an oracle_sql() entry."""
    window = list(QUERIES)[:50]
    assert len(window) == 50
    assert [n for n in window if n not in ORACLES] == []
