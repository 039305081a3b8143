import re

import pytest

from ngparse import cli, evaluate, sampler
from ngparse.evaluate import EvalRecord, evaluate_grid, write_csv
from ngparse.grammar import build_grammar
from ngparse.search import SearchConfig


def test_oracle_grid_perfect(g):
    records = evaluate_grid(
        g, ["oracle"], depths=range(7, 10), lengths=range(8, 13), per_cell=10, seed=1
    )
    assert len(records) == 15
    nonempty = [r for r in records if r.count]
    assert nonempty
    assert all(r.exact_match == 1.0 for r in nonempty)
    assert all(r.errors == {} for r in nonempty)


def test_infeasible_cells_are_empty_not_errors(g):
    # depth 6 exists only at length 4
    records = evaluate_grid(g, ["oracle"], depths=[6], lengths=[4, 15], per_cell=5, seed=1)
    by_len = {r.length: r for r in records}
    assert by_len[4].count == 5 and by_len[4].exact_match == 1.0
    assert by_len[15].count == 0


def test_methods_share_programs_and_sort_order(g, small_trained):
    records = evaluate_grid(
        g,
        ["search", "ngsi"],
        depths=[7],
        lengths=[8],
        per_cell=5,
        seed=2,
        model=small_trained,
        search_cfg=SearchConfig(max_depth=12, time_limit_s=30),
    )
    assert [r.method for r in records] == ["ngsi", "search"]
    assert all(r.count == 5 for r in records)


def test_per_cell_validation(g):
    with pytest.raises(ValueError):
        evaluate_grid(g, ["oracle"], [7], [8], per_cell=0, seed=0)
    with pytest.raises(ValueError):
        evaluate_grid(g, ["bogus"], [7], [8], per_cell=1, seed=0)
    with pytest.raises(ValueError):
        evaluate_grid(g, ["ngsi"], [7], [8], per_cell=1, seed=0)  # no model
    with pytest.raises(ValueError, match="depth must be an integer, got 7.0"):
        evaluate_grid(g, ["oracle"], [7.0], [8], per_cell=1, seed=0)
    with pytest.raises(ValueError, match="length must be an integer, got True"):
        evaluate_grid(g, ["oracle"], [7], [8, True], per_cell=1, seed=0)
    # A bad count is an error, not a grid of empty cells.
    with pytest.raises(ValueError, match="per_cell must be an integer, got 2.5"):
        evaluate_grid(g, ["oracle"], [7], [8], per_cell=2.5, seed=0)
    # An integer no bucket takes is an empty cell, not an error.
    [record] = evaluate_grid(g, ["oracle"], [0], [8], per_cell=1, seed=0)
    assert record.count == 0
    # The check reads the axes once, so iterators still give every cell.
    assert len(evaluate_grid(g, ["oracle"], iter([7]), iter([8, 9]), per_cell=1, seed=0)) == 2


@pytest.mark.parametrize(
    "seed,match",
    [(1.0, "seed must be an integer, got 1.0"), ("1", "seed must be an integer, got '1'"),
     (True, "seed must be an integer, got True"), (-1, "seed must be >= 0, got -1")],
    ids=["float", "str", "bool", "negative"],
)
def test_seed_validation(g, seed, match):
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        evaluate_grid(g, ["oracle"], [7], [8], per_cell=1, seed=seed)


def test_a_repeated_depth_is_one_cell(g, monkeypatch):
    drawn = []
    sample = sampler.sample_corpus

    def counted(*args, **kwargs):
        drawn.append(args[1])
        return sample(*args, **kwargs)

    monkeypatch.setattr(evaluate, "sample_corpus", counted)
    records = evaluate_grid(g, ["oracle"], [7, 7], [8, 8], per_cell=2, seed=0)
    assert [(r.depth, r.length, r.count) for r in records] == [(7, 8, 2)]
    assert len(drawn) == 1


def test_eval_cli_writes_a_repeated_depth_once(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["eval", "--methods", "oracle", "--depths", "7,7", "--lengths", "8",
            "--per-cell", "2", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [["oracle", "7", "8", "2"]]


def test_a_sampler_error_propagates(g, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("sampler fault")

    monkeypatch.setattr(evaluate, "sample_corpus", broken)
    with pytest.raises(ValueError, match="sampler fault"):
        evaluate_grid(g, ["oracle"], [7], [8], per_cell=1, seed=0)


def test_grid_builds_one_count_table(monkeypatch):
    built = []

    class Counted(sampler._CountTable):
        def __init__(self, g, max_depth, max_length):
            built.append((max_depth, max_length))
            super().__init__(g, max_depth, max_length)

    monkeypatch.setattr(sampler, "_CountTable", Counted)
    evaluate_grid(build_grammar(), ["oracle"], range(7, 10), range(8, 13), per_cell=1, seed=0)
    assert built == [(9, 12)]


def test_csv_lines_are_exact(g, tmp_path):
    records = [
        EvalRecord("search", 7, 8, 10, 1.0, 0.1, 0.2, {}),
        EvalRecord("oracle", 7, 8, 10, 0.9, 0.001234, 0.002345, {"unparseable": 1}),
        EvalRecord("oracle", 7, 6, 3, 1 / 3, 0.5, 2.0, {"timeout": 2, "mismatch": 1}),
    ]
    path = tmp_path / "grid.csv"
    write_csv(records, path)
    assert path.read_text().splitlines() == [
        "method,depth,length,count,exact_match,mean_time_s,p95_time_s,errors",
        "oracle,7,6,3,0.3333,0.500000,2.000000,mismatch:1;timeout:2",
        "oracle,7,8,10,0.9000,0.001234,0.002345,unparseable:1",
        "search,7,8,10,1.0000,0.100000,0.200000,",
    ]


def test_csv_empty(g, tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text().splitlines() == [
        "method,depth,length,count,exact_match,mean_time_s,p95_time_s,errors"
    ]
