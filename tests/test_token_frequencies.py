"""``textops.token_frequencies``: the driver sum of the per-batch
partials and the bucketed exchange it falls back to past ``MAX_GROUPS``
distinct tokens give the same Series, in count desc, token asc order."""

from __future__ import annotations

import re
from collections import Counter

import pandas as pd
import pyarrow as pa
import pytest

from ocrd_cis_ray.stages import metrics
from ocrd_cis_ray.stages.textops import token_frequencies

# three blocks; counts a 5, "" b c d 3 (tied across blocks), e 1
BLOCKS = [
    ["a b c", "a  d", "a b"],
    ["c d a", "e b"],
    ["d c a ", None],
]


def _texts():
    import ray.data as rd

    return rd.from_arrow([pa.table({"text": pa.array(b, pa.string())}) for b in BLOCKS])


def _oracle(top_v):
    counts = Counter(w for b in BLOCKS for txt in b for w in (txt or "").split(" "))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_v]
    return pd.Series([c for _, c in ranked], index=pd.Index([w for w, _ in ranked], name="w"))


@pytest.mark.parametrize("top_v", [None, 2, 3, 100])
def test_exchange_path_matches_driver_sum(ray_session, monkeypatch, executed_plans, top_v):
    driver = token_frequencies(_texts(), top_v=top_v)
    assert not any("AllToAllOperator" in p for p in executed_plans), executed_plans
    del executed_plans[:]
    # 6 distinct tokens: a gate below that takes the exchange
    monkeypatch.setattr(metrics, "MAX_GROUPS", 5)
    exchange = token_frequencies(_texts(), top_v=top_v)
    assert any(re.search(r"AllToAllOperator\[\w+\]", p) for p in executed_plans), executed_plans
    pd.testing.assert_series_equal(driver, exchange)
    pd.testing.assert_series_equal(driver, _oracle(top_v), check_dtype=False)
