import pytest

from conftest import enumerated_trees
from ngparse.grammar import (
    INF,
    Grammar,
    GrammarError,
    Nonterminal,
    ProductionRule,
    Token,
    build_grammar,
    validate_grammar,
)
from ngparse.tree import Ast


def test_rule_and_vocab_sizes(g):
    assert len(g.rules) == 32
    assert len(g.vocabulary) == 33
    assert len(g.nonterminals) == 8
    assert g.start.name == "Stmt"


def test_rules_for_stmt(g):
    names = [r.name for r in g.rules_for(g.nonterminal("Stmt"))]
    assert names == ["S1", "S2"]


def test_rules_for_const(g):
    rules = g.rules_for(g.nonterminal("Const"))
    assert [r.name for r in rules] == [f"C{i}" for i in range(1, 11)]
    assert [s.text for r in rules for s in r.rhs] == [str(i) for i in range(10)]


def test_rules_for_unknown_nonterminal(g):
    with pytest.raises(GrammarError):
        g.rules_for(Nonterminal(99, "Bogus"))


def test_rules_partition_by_lhs(g):
    seen = []
    for nt in g.nonterminals:
        rules = g.rules_for(nt)
        assert all(r.lhs == nt for r in rules)
        seen.extend(r.id for r in rules)
    assert sorted(seen) == list(range(len(g.rules)))


def test_rule_id_roundtrip(g):
    for r in g.rules:
        assert g.rule_by_id(r.id) is r


def test_rule_ids_dense_and_in_order(g):
    assert [r.id for r in g.rules] == list(range(len(g.rules)))


def test_search_plans_match_min_lengths(g):
    def need(sym):
        return 1 if isinstance(sym, Token) else g.min_lengths[sym.id]

    assert g.search_plans is g.search_plans
    leaves = 0
    for rules, plan in zip(g.rules_by_lhs, g.search_plans):
        assert [p[0] for p in plan] == [r.id for r in rules]
        for r, (_, total, steps, leaf) in zip(rules, plan):
            assert total == sum(map(need, r.rhs))
            assert steps == tuple(
                (
                    sym.id if isinstance(sym, Token) else None,
                    sym.id if isinstance(sym, Nonterminal) else None,
                    sum(map(need, r.rhs[i + 1:])),
                )
                for i, sym in enumerate(r.rhs)
            )
            if len(r.rhs) == 1 and isinstance(r.rhs[0], Token):
                assert leaf == Ast(r.id, ())
                leaves += 1
            else:
                assert leaf is None
    assert leaves == 15


def test_builtin_grammar_validates(g):
    assert validate_grammar(g) == []


def _make(nts, rules, start):
    return Grammar(nts, build_grammar().vocabulary, rules, start)


def test_nonproductive_defect(g):
    bogus = Nonterminal(len(g.nonterminals), "Dead")
    nts = g.nonterminals + (bogus,)
    defects = _make(nts, g.rules, g.start)
    out = validate_grammar(defects)
    assert any("nonproductive: Dead" in d for d in out)
    assert any("unreachable: Dead" in d for d in out)


def test_self_recursive_nonterminal_is_nonproductive(g):
    # Loop -> ( Loop ) never bottoms out, so Loop derives no terminal string.
    loop = Nonterminal(len(g.nonterminals), "Loop")
    lp, rp = g.token("("), g.token(")")
    enter = ProductionRule(len(g.rules), "L0", g.start, (loop,))
    spin = ProductionRule(len(g.rules) + 1, "L1", loop, (lp, loop, rp))
    g2 = _make(g.nonterminals + (loop,), g.rules + (enter, spin), g.start)
    assert validate_grammar(g2) == ["nonproductive: Loop"]
    assert g2.min_lengths[loop.id] == g2.min_depths[loop.id] == INF
    assert g2.min_lengths[g.start.id] == g.min_lengths[g.start.id]


@pytest.mark.parametrize("side", ["rhs", "lhs"])
def test_undeclared_nonterminal_is_a_defect(g, side):
    # Ghost shares no declared nonterminal's identity; as an lhs it takes a
    # declared id, since the grammar files rules by lhs id.
    if side == "rhs":
        ghost = ProductionRule(len(g.rules), "X1", g.start, (Nonterminal(99, "Ghost"),))
    else:
        ghost = ProductionRule(len(g.rules), "X1", Nonterminal(3, "Ghost"), (g.token(";"),))
    g2 = _make(g.nonterminals, g.rules + (ghost,), g.start)
    assert validate_grammar(g2) == ["undeclared: Ghost in X1"]


@pytest.mark.parametrize("lhs_id", [-1, 99])
def test_lhs_id_out_of_range_is_an_error(g, lhs_id):
    ghost = ProductionRule(len(g.rules), "X1", Nonterminal(lhs_id, "Ghost"), (g.token(";"),))
    message = rf"^rule X1: lhs Ghost has id {lhs_id}, outside 0\.\.7$"
    with pytest.raises(GrammarError, match=message):
        _make(g.nonterminals, g.rules + (ghost,), g.start)


def test_duplicate_rhs_defect(g):
    e3 = g.rule_by_name("E3")
    dup = ProductionRule(len(g.rules), "E3b", e3.lhs, e3.rhs)
    out = validate_grammar(_make(g.nonterminals, g.rules + (dup,), g.start))
    assert any(d.startswith("duplicate:") for d in out)


def test_fingerprints_change_with_table(g):
    e3 = g.rule_by_name("E3")
    extra = ProductionRule(len(g.rules), "X1", e3.lhs, e3.rhs)
    g2 = _make(g.nonterminals, g.rules + (extra,), g.start)
    assert g2.rule_fingerprint() != g.rule_fingerprint()
    assert g2.vocab_fingerprint() == g.vocab_fingerprint()


def test_min_tables(g):
    depths, lengths = g.min_depths, g.min_lengths
    assert depths[g.start.id] == 6
    assert lengths[g.start.id] == 4
    assert lengths[g.nonterminal("Var").id] == 1
    assert depths[g.nonterminal("Const").id] == 1


def test_min_tables_are_the_minima_of_every_tree(g):
    # Depth 8 and length 16 hold a smallest tree of every nonterminal.
    enumerated = enumerated_trees(g, 8, 16)
    for nt in g.nonterminals:
        summaries = enumerated[nt.id]
        assert g.min_depths[nt.id] == min(d for d, _, _, _ in summaries), nt.name
        assert g.min_lengths[nt.id] == min(l for _, l, _, _ in summaries), nt.name


def test_encode_decode(g):
    text = "if v0 < 1 then v1 = 2 ; else v1 = 3 ; endif"
    assert g.decode(g.encode(text)) == text
    with pytest.raises(GrammarError):
        g.encode("v0 := 1")


def test_lookahead_sets_are_the_first_and_last_tokens_of_every_tree(g):
    # Depth 8 and length 16 reach every token a tree can start or end
    # with; the smallest statement starting with "if" is that large.
    enumerated = enumerated_trees(g, 8, 16)
    for nt in g.nonterminals:
        rules = g.rules_for(nt)
        first = set().union(*(g.lookahead[r.id][0] for r in rules))
        last = set().union(*(g.lookahead[r.id][1] for r in rules))
        assert first == {f for _, _, f, _ in enumerated[nt.id]}, nt.name
        assert last == {z for _, _, _, z in enumerated[nt.id]}, nt.name


def test_candidates_filter_by_lookahead(g):
    stmt, var = g.nonterminal("Stmt"), g.nonterminal("Var")
    v0, v1, semi = g.token("v0").id, g.token("v1").id, g.token(";").id
    assert [r.name for r in g.candidates(stmt, v0, semi)] == ["S1", "S2"]
    assert g.candidates(stmt, semi, semi) == ()
    assert [r.name for r in g.candidates(var, v1, v1)] == ["V2"]
    assert g.candidates(var, v0, v1) == ()
    for bogus in (Nonterminal(99, "Bogus"), Nonterminal(stmt.id, "Bogus")):
        with pytest.raises(GrammarError):
            g.candidates(bogus, v0, semi)
