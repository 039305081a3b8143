import hashlib
import statistics

import pytest

from ngparse.parser import reference_parse
from ngparse.sampler import SampleBucket, sample_corpus
from ngparse.search import SearchConfig, iddfs_parse
from ngparse.tree import pretty_print, serialize


def test_finds_assignment_at_its_depth(g):
    res = iddfs_parse(g, g.encode("v0 = 1 ;"))
    assert res.status == "found"
    assert res.depth_limit == 6
    assert serialize(g, res.tree) == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"


def test_agrees_with_reference_parser(g):
    cfg = SearchConfig(max_depth=16, time_limit_s=30)
    for tokens, truth in sample_corpus(g, SampleBucket(4, 14, 1, 11, seed=31), 40):
        res = iddfs_parse(g, tokens, cfg)
        assert res.status == "found"
        assert res.tree == truth
        assert res.tree == reference_parse(g, tokens)
        assert pretty_print(g, res.tree) == tokens


def test_exhausted_on_unparseable(g):
    res = iddfs_parse(g, g.encode("v0 v0 ;"), SearchConfig(max_depth=10, time_limit_s=10))
    assert res.status == "exhausted"
    assert res.tree is None


def test_timeout_is_a_result(g):
    long_program, _ = sample_corpus(g, SampleBucket(26, 30, 1, 13, seed=32), 1)[0]
    res = iddfs_parse(g, long_program, SearchConfig(max_depth=30, time_limit_s=1e-4))
    assert res.status == "timeout"
    assert res.tree is None


def test_empty_input_rejected(g):
    with pytest.raises(ValueError):
        iddfs_parse(g, ())


@pytest.mark.parametrize(
    "kwargs",
    [{"max_depth": 0}, {"max_depth": -5}, {"time_limit_s": 0}, {"time_limit_s": -1}],
    ids=["zero-depth", "negative-depth", "zero-time-limit", "negative-time-limit"],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SearchConfig(**kwargs)


def test_median_time_superlinear(g):
    cfg = SearchConfig(max_depth=20, time_limit_s=60)
    medians = {}
    for length in (8, 16):
        times = []
        for tokens, _ in sample_corpus(g, SampleBucket(length, length, 1, 14, seed=33), 12):
            res = iddfs_parse(g, tokens, cfg)
            assert res.status == "found"
            times.append(res.elapsed_s)
        medians[length] = statistics.median(times)
    assert medians[16] >= 4 * medians[8]


# sha256 over each input's serialized tree, status, final depth limit and
# nodes expanded: 60 seeded programs and one input the search exhausts.
PINNED_SEARCH_SHA256 = "2fcbdc75614429d0b90df86ef85e18e3bd716dc961231271418327b847737e9a"


def test_search_outcomes_are_pinned(g):
    cfg = SearchConfig(max_depth=16, time_limit_s=600)
    inputs = [t for t, _ in sample_corpus(g, SampleBucket(4, 14, 1, 11, seed=34), 60)]
    inputs.append(g.encode("v0 v0 ;"))
    h = hashlib.sha256()
    statuses = []
    for tokens in inputs:
        res = iddfs_parse(g, tokens, cfg)
        tree = serialize(g, res.tree) if res.tree is not None else None
        statuses.append(res.status)
        h.update(f"{tokens} {tree} {res.status} {res.depth_limit} {res.nodes_expanded}\n".encode())
    assert statuses == ["found"] * 60 + ["exhausted"]
    assert h.hexdigest() == PINNED_SEARCH_SHA256
