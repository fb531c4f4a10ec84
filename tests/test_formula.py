import pytest
from hypothesis import given

from conftest import formula_dict, formulas

from ielprove import formula
from ielprove.formula import (
    BOT,
    And,
    Bottom,
    Formula,
    FormulaSyntaxError,
    Imp,
    K,
    Or,
    Var,
    connective_count,
    formula_from_json,
    parse,
    render,
    subformulas,
)

a, b, c = Var("a"), Var("b"), Var("c")


class TestParse:
    def test_distribution_axiom(self):
        assert parse("K(a -> b) -> (K a -> K b)") == Imp(
            K(Imp(a, b)), Imp(K(a), K(b)))

    def test_negation_is_sugar(self):
        assert parse("~a") == Imp(a, BOT)

    def test_implication_right_associative(self):
        assert parse("a -> b -> c") == Imp(a, Imp(b, c))

    def test_precedence(self):
        assert parse("K a & b | c -> false") == Imp(Or(And(K(a), b), c), BOT)

    def test_bottom_spellings(self):
        assert parse("false") == BOT
        assert parse("_|_") == BOT
        assert parse("falsehood") == Var("falsehood")

    def test_k_without_space(self):
        assert parse("Ka") == K(a)

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse("   ")

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("a -> $")
        assert exc.value.position == 5

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a b")

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(a -> b")

    @pytest.mark.parametrize("text,rendered", [
        ("K " * 1500 + "a", "K " * 1500 + "a"),
        ("(" * 2000 + "a" + ")" * 2000, "a"),
        (" -> ".join(["a"] * 1200), " -> ".join(["a"] * 1200)),
    ], ids=["k-chain", "parentheses", "imp-chain"])
    def test_deep_input_without_recursion(self, text, rendered):
        assert render(parse(text)) == rendered

    @pytest.mark.parametrize("text,message,position", [
        ("", "empty input", 0),
        ("   ", "empty input", 0),
        ("a -> $", "unexpected character '$'", 5),
        ("a) #", "unexpected character '#'", 3),  # the whole text is tokenized first
        ("a & -> b", "expected a formula", 4),
        ("(a | )", "expected a formula", 5),
        ("~ & a", "expected a formula", 2),
        ("a ->", "expected a formula", 4),
        ("a -> ", "expected a formula", 5),
        ("K ~", "expected a formula", 3),
        ("(", "expected a formula", 1),
        ("(a b)", "expected ')'", 3),
        ("(a -> b", "expected ')'", 7),
        ("((a) ", "expected ')'", 5),
        ("a b", "trailing input", 2),
        ("a ~ b", "trailing input", 2),
        ("a)", "trailing input", 1),
        ("(a))", "trailing input", 3),
        ("a -> b ) c", "trailing input", 7),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position


class TestRender:
    def test_modal_implication(self):
        assert render(Imp(K(a), a)) == "K a -> a"

    def test_double_negation_sugar(self):
        assert render(Imp(Imp(a, BOT), BOT)) == "~~a"

    def test_parenthesizes_weaker_operator(self):
        assert render(And(a, Or(b, c))) == "a & (b | c)"

    def test_k_of_compound(self):
        assert render(K(Imp(a, b))) == "K(a -> b)"

    @given(formulas)
    def test_roundtrip(self, f):
        # Formulas compare by text, so compare the trees themselves.  parse
        # looks up a live formula's own text, so the spaced text is the one
        # that goes through the token loop.
        assert formula_dict(parse(f" {render(f)} ")) == formula_dict(f)


class TestLiveLookup:
    @given(formulas)
    def test_live_text_is_not_tokenized(self, f):
        def no_tokens(text):
            raise AssertionError(f"tokenized {text!r}")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formula, "_tokenize", no_tokens)
            assert parse(render(f)) is f

    @pytest.mark.parametrize("text,rendered", [
        ("(a)", "a"), ("a->b", "a -> b"), (" a -> b ", "a -> b"),
    ])
    def test_other_spellings_are_tokenized(self, monkeypatch, text, rendered):
        f = parse(rendered)
        tokenize, tokenized = formula._tokenize, []

        def counting(text):
            tokenized.append(text)
            return tokenize(text)

        monkeypatch.setattr(formula, "_tokenize", counting)
        assert parse(text) is f and tokenized == [text]


def _internal_nodes(f: Formula) -> int:
    if isinstance(f, (Var, Bottom)):
        return 0
    if isinstance(f, K):
        return 1 + _internal_nodes(f.body)
    return 1 + _internal_nodes(f.left) + _internal_nodes(f.right)


class TestMeasures:
    @pytest.mark.parametrize("text,count", [
        ("a", 0),
        ("K a -> a", 2),
        ("K a -> ~~a", 4),
    ])
    def test_connective_count(self, text, count):
        assert connective_count(parse(text)) == count

    @given(formulas)
    def test_connective_count_is_internal_node_count(self, f):
        assert connective_count(f) == _internal_nodes(f)

    def test_subformulas_of_variable(self):
        assert subformulas(a) == {a}

    def test_subformulas_of_modal_implication(self):
        assert subformulas(parse("K a -> a")) == {parse("K a -> a"), K(a), a}

    def test_subformulas_of_bottom(self):
        assert subformulas(BOT) == {BOT}

    @given(formulas)
    def test_subformulas_closed_under_subterms(self, f):
        for g in subformulas(f):
            assert subformulas(g) <= subformulas(f)


class TestJson:
    @given(formulas)
    def test_roundtrip(self, f):
        assert formula_dict(formula_from_json(formula_dict(f))) == formula_dict(f)

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            formula_from_json({"op": "xor", "left": {"op": "bot"}, "right": {"op": "bot"}})

    def test_rejects_bad_name(self):
        for name in ("Nope", "false"):
            with pytest.raises(ValueError):
                formula_from_json({"op": "var", "name": name})


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("A")
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("false")  # reserved for falsum: render would not be injective
