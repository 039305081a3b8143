import types

import pytest

from spans import Span, Target, Totals, Tracer, patched, self_times


def test_self_time_of_a_hand_built_tree():
    #   root  [0, 10]
    #   +- a  [1, 4]     +- a1 [2, 3]
    #   +- b  [3.5, 6]   overlaps a by 0.5: the union counts once
    #   +- c  [9, 12]    sticks out of root: only [9, 10] counts
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("b", 3.5, 6.0, parent=0),
        Span("c", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10 - (5 + 1), 2, 1, 2.5, 3])


def test_totals_sum_by_name():
    spans = [
        Span("infer", 0.0, 4.0),
        Span("select", 1.0, 2.0, parent=0),
        Span("select", 2.5, 3.0, parent=0, error="Unparseable"),
    ]
    tot = Totals(spans)
    assert tot.count("select") == 2 and tot.failed("select") == 1
    assert tot.total("select") == pytest.approx(1.5)
    assert tot.own("infer") == pytest.approx(2.5)
    assert tot.count("missing") == 0 and tot.own("missing") == 0.0


def test_patched_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2

    def boom(x):
        raise ValueError(x)

    mod.boom = boom
    tracer = Tracer()
    originals = (mod.inner, mod.outer, mod.boom)
    targets = (
        Target(mod, "outer", "outer", new_group=True),
        Target(mod, "inner", "inner", note=lambda x: x),
        Target(mod, "boom", "boom"),
    )
    with patched(tracer, targets):
        assert mod.outer(3) == 8
        assert mod.outer(5) == 12
        with pytest.raises(ValueError):
            mod.boom(1)
    assert (mod.inner, mod.outer, mod.boom) == originals
    names = [(s.name, s.parent, s.group, s.note, s.error) for s in tracer.spans]
    assert names == [
        ("outer", -1, 0, None, None),
        ("inner", 0, 0, 3, None),
        ("outer", -1, 1, None, None),
        ("inner", 2, 1, 5, None),
        ("boom", -1, 1, None, "ValueError"),
    ]
    assert all(s.start <= s.end for s in tracer.spans)
