import pytest

from ngparse.grammar import GrammarError, Nonterminal
from ngparse.parser import ParseError, reference_parse
from ngparse.sampler import SampleBucket, sample_corpus
from ngparse.tree import pretty_print, serialize


def test_assignment(g):
    t = reference_parse(g, g.encode("v0 = 1 ;"))
    assert serialize(g, t) == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"


def test_single_terminal_at_var(g):
    t = reference_parse(g, g.encode("v0"), g.nonterminal("Var"))
    assert serialize(g, t) == "(V1)"


def test_missing_expression_is_unparseable(g):
    with pytest.raises(ParseError) as exc:
        reference_parse(g, g.encode("v0 = ;"))
    assert exc.value.furthest >= 2


def test_empty_input(g):
    with pytest.raises(ParseError):
        reference_parse(g, ())


@pytest.mark.parametrize(
    "text,nt",
    [
        ("if v0 < 1 then v1 = 2 ; else v1 = 3 ; endif", "SimpStmt"),
        ("while ( v0 < 1 and not v1 == 2 ) do v2 = 3 ; endwhile", "SimpStmt"),
        ("( 1 + 2 ) * v3", "ATerm"),
        ("( 1 ) < 2", "BExpr"),
        ("( 1 < 2 and 3 < 4 )", "BExpr"),
        ("not not v0 == v1", "BExpr"),
    ],
)
def test_nested_constructs_roundtrip(g, text, nt):
    t = reference_parse(g, g.encode(text), g.nonterminal(nt))
    assert g.decode(pretty_print(g, t)) == text


@pytest.mark.parametrize(
    "text", ["v0 = 1", "v0 = 1 ; ;", "if v0 < 1 then v1 = 2 ; endif", "5 = 1 ;"]
)
def test_rejects_malformed(g, text):
    with pytest.raises(ParseError):
        reference_parse(g, g.encode(text))


def test_agreement_with_generator(g):
    corpus = sample_corpus(g, SampleBucket(4, 30, 1, 11, seed=123), 300)
    for tokens, truth in corpus:
        t = reference_parse(g, tokens)
        assert t == truth
        assert pretty_print(g, t) == tokens


@pytest.mark.parametrize("bad", [-1, 33, 999, "v0", 18.0])  # 33: one past the last id
def test_unknown_token_id_is_a_parse_error(g, bad):
    program = g.encode("v0 = 1 ; v1 = 2 ;")
    for tokens, nt, pos in [
        ((bad,), g.nonterminal("Const"), 0),
        ((bad,), g.start, 0),
        (program[:5] + (bad,) + program[5:], g.start, 5),
    ]:
        with pytest.raises(ParseError, match=f"token id {bad} ") as info:
            reference_parse(g, tokens, nt)
        assert info.value.furthest == pos


def test_unknown_nonterminal_is_a_grammar_error(g):
    with pytest.raises(GrammarError, match="unknown nonterminal"):
        reference_parse(g, g.encode("v0 = 1 ;"), Nonterminal(99, "Ghost"))
