"""Formula semantics, option shapes, rendering, and serialization."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combicat.logic import (
    STATEMENTS,
    And,
    FormulaSyntaxError,
    Not,
    Or,
    PatternKind,
    SHAPE_LIST,
    SHAPES,
    Statement,
    Var,
    classify,
    parse_formula,
    render,
    truth_row,
)
from combicat.rng import PortableRng
from oracle import (
    reference_evaluate,
    reference_render,
    reference_satisfies,
    reference_shape,
    reference_table,
    row_statements,
)


FORMULA_TEXTS = st.recursive(
    st.sampled_from(STATEMENTS).map(lambda s: f"VAR({s.name})"),
    lambda inner: inner.map(lambda t: f"NOT({t})")
    | st.tuples(st.sampled_from(["AND", "OR"]), inner, inner).map(lambda p: f"{p[0]}({p[1]},{p[2]})"),
    max_leaves=12,
)


def holds(formula, row: int) -> bool:
    """A formula's value in one truth-table row: a bit test on its mask."""
    return bool(formula.mask >> row & 1)


def shape_formula(kind, *statements):
    """The formula of the table row with this kind and these statements."""
    return next(s.formula for s in SHAPE_LIST if (s.kind, s.statements) == (kind, statements))


UNIVERSAL_NONE = shape_formula(PatternKind.UNIVERSAL_NONE)


def random_formula(rng: PortableRng, max_depth: int) -> object:
    """Uniform-ish random formula tree of bounded depth."""
    if max_depth <= 1 or rng.below(4) == 0:
        return Var(STATEMENTS[rng.below(4)])
    node = rng.below(3)
    if node == 0:
        return Not(random_formula(rng, max_depth - 1))
    left = random_formula(rng, max_depth - 1)
    right = random_formula(rng, max_depth - 1)
    return And(left, right) if node == 1 else Or(left, right)


class TestEvaluate:
    def test_exactness_true_under_its_own_answer(self):
        formula = shape_formula(PatternKind.EXACTNESS, Statement.I)
        assert holds(formula, truth_row(Statement.I)) is True

    def test_negated_answer_is_false(self):
        assert holds(Not(Var(Statement.I)), truth_row(Statement.I)) is False

    def test_compound_negation_of_two_wrong_statements_is_true(self):
        formula = shape_formula(PatternKind.COMPOUND_NEGATION, Statement.II, Statement.III)
        assert holds(formula, truth_row(Statement.I)) is True

    def test_total_over_all_assignments(self):
        formula = Or(Var(Statement.I), Not(Var(Statement.III)))
        for row in range(16):
            assert holds(formula, row) == reference_evaluate(formula, row_statements(row))


class TestTruthTable:
    def test_sixteen_rows_lexicographic(self):
        assert row_statements(0) == frozenset()
        assert row_statements(15) == frozenset(STATEMENTS)
        assert row_statements(0b1000) == {Statement.I}
        # bit r is row r; statement I is the most significant position
        assert [Var(s).mask for s in STATEMENTS] == [0xFF00, 0xF0F0, 0xCCCC, 0xAAAA]
        assert all(holds(Var(s), row) == (s in row_statements(row)) for s in STATEMENTS for row in range(16))

    def test_single_variable_true_in_eight_rows(self):
        assert Var(Statement.I).mask.bit_count() == 8

    def test_exactness_true_in_exactly_one_row(self):
        formula = shape_formula(PatternKind.EXACTNESS, Statement.I)
        assert formula.mask.bit_count() == 1

    def test_two_way_disjunction_true_in_twelve_rows(self):
        formula = Or(Var(Statement.I), Var(Statement.II))
        assert formula.mask.bit_count() == 12


class TestPatternOracles:
    def test_every_pattern_agrees_with_its_truth_table_row(self):
        """Mask evaluation must match the reference evaluator at each ground truth."""
        for shape in SHAPE_LIST:
            for answer in STATEMENTS:
                assert holds(shape.formula, truth_row(answer)) == reference_evaluate(shape.formula, {answer})

    def test_universal_none_false_under_every_ground_truth(self):
        for answer in STATEMENTS:
            assert holds(UNIVERSAL_NONE, truth_row(answer)) is False

    def test_shape_table_is_the_reference_shapes_in_canonical_order(self):
        kinds = PatternKind
        pairs = list(combinations(STATEMENTS, 2))
        expected = [reference_shape(kinds.EXACTNESS, s) for s in STATEMENTS]
        expected += [reference_shape(kinds.DISJUNCTION, *pair) for pair in pairs]
        expected += [reference_shape(kinds.NEGATION, s) for s in STATEMENTS]
        expected += [reference_shape(kinds.COMPOUND_NEGATION, *pair) for pair in pairs]
        expected.append(reference_shape(kinds.UNIVERSAL_NONE))
        table = [(shape.kind, shape.statements, shape.formula.serialized) for shape in SHAPE_LIST]
        assert table == [(kind, statements, formula.serialized) for kind, statements, formula in expected]

    def test_presents_the_kinds_the_reference_satisfies(self):
        for shape in SHAPE_LIST:
            for requirement in PatternKind:
                assert (requirement in shape.presents) == reference_satisfies(shape.kind, requirement)


class TestDeMorgan:
    def test_thousand_random_formulas(self):
        """not(x or y) must equal (not x) and (not y) on every assignment."""
        rng = PortableRng(2024)
        for _ in range(1000):
            left = random_formula(rng, 6)
            right = random_formula(rng, 6)
            lhs = Not(Or(left, right))
            rhs = And(Not(left), Not(right))
            assert lhs.mask == rhs.mask


class TestClassify:
    def test_recognizes_each_pattern_expansion(self):
        for shape in SHAPE_LIST:
            assert classify(shape.formula) is shape

    def test_recognizes_universal_none(self):
        assert classify(UNIVERSAL_NONE).kind is PatternKind.UNIVERSAL_NONE

    def test_free_form_returns_none(self):
        assert classify(And(Var(Statement.I), Var(Statement.II))) is None

    def test_recognition_ignores_conjunct_order(self):
        scrambled = And(
            Not(Var(Statement.IV)),
            And(And(Not(Var(Statement.II)), Var(Statement.I)), Not(Var(Statement.III))),
        )
        found = classify(scrambled)
        assert (found.kind, found.statements) == (PatternKind.EXACTNESS, (Statement.I,))

    def test_recognition_is_up_to_logical_equivalence(self):
        de_morgan = Not(Or(Var(Statement.I), Var(Statement.II)))
        compound = shape_formula(PatternKind.COMPOUND_NEGATION, Statement.I, Statement.II)
        assert classify(de_morgan) is classify(compound)
        assert render(de_morgan) == render(compound)

    def test_all_twenty_one_shapes_have_distinct_masks(self):
        assert len(SHAPES) == len(SHAPE_LIST) == 21


class TestRender:
    def test_exactness_template(self):
        assert render(shape_formula(PatternKind.EXACTNESS, Statement.I)) == "Only statement I is correct"

    def test_negation_template(self):
        assert render(shape_formula(PatternKind.NEGATION, Statement.IV)) == "Statement IV is not correct"

    def test_formula_of_no_shape_has_no_text(self):
        with pytest.raises(KeyError):
            render(And(Var(Statement.I), Var(Statement.II)))

    def test_injective_over_patterns_and_none(self):
        for locale in ("en", "zh"):
            texts = [render(shape.formula, locale) for shape in SHAPE_LIST]
            assert len(set(texts)) == len(texts)

    def test_zh_locale_renders_without_latin_templates(self):
        text = render(shape_formula(PatternKind.EXACTNESS, Statement.II), "zh")
        assert "II" in text and "correct" not in text

    def test_unknown_locale_rejected(self):
        with pytest.raises(ValueError):
            render(Var(Statement.I), "fr")

    def test_every_shape_renders_as_the_reference(self):
        formulas = [shape.formula for shape in SHAPE_LIST] + [Not(Or(Var(Statement.I), Var(Statement.II)))]
        for locale in ("en", "zh"):
            assert [render(f, locale) for f in formulas] == [reference_render(f, locale) for f in formulas]

    @given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["en", "zh"]))
    @settings(max_examples=200)
    def test_random_formulas_render_as_the_reference(self, seed, locale):
        formula = random_formula(PortableRng(seed), 4)
        try:
            expected = reference_render(formula, locale)
        except KeyError:
            with pytest.raises(KeyError):
                render(formula, locale)
            return
        assert render(formula, locale) == expected


class TestSerialization:
    def test_example_form(self):
        formula = And(Var(Statement.I), Not(Var(Statement.II)))
        assert formula.serialized == "AND(VAR(I),NOT(VAR(II)))"

    def test_round_trip_fixed_cases(self):
        for shape in SHAPE_LIST:
            assert parse_formula(shape.formula.serialized) == shape.formula

    def test_round_trip_random_formulas(self):
        rng = PortableRng(7)
        for _ in range(200):
            formula = random_formula(rng, 7)
            assert parse_formula(formula.serialized) == formula

    def test_parse_rejects_garbage(self):
        for bad in ("", "AND(VAR(I)", "XOR(VAR(I),VAR(II))", "VAR(V)", "VAR(I)X"):
            with pytest.raises((FormulaSyntaxError, ValueError)):
                parse_formula(bad)

    @given(st.one_of(FORMULA_TEXTS, st.text(alphabet="VARNOTDI(), ", max_size=24)))
    @settings(max_examples=300)
    def test_cached_parse_matches_uncached_parse(self, text):
        """``parse_formula.__wrapped__`` is the uncached parser, kept as the oracle."""
        try:
            expected = parse_formula.__wrapped__(text)
        except ValueError as exc:
            with pytest.raises(type(exc)) as exc_info:
                parse_formula(text)
            assert str(exc_info.value) == str(exc)
            return
        assert parse_formula(text) == expected
        assert parse_formula(text) is parse_formula(text)
        assert parse_formula(text).serialized == text.replace(" ", "")


class TestMask:
    """The 16-bit truth mask against the recursive reference evaluator."""

    def test_commutative_operands_share_a_mask(self):
        a = And(Var(Statement.II), Var(Statement.I))
        b = And(Var(Statement.I), Var(Statement.II))
        assert a.mask == b.mask

    def test_distinct_formulas_differ(self):
        assert Var(Statement.I).mask != Not(Var(Statement.I)).mask

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200)
    def test_mask_bits_match_reference_evaluator(self, seed):
        formula = random_formula(PortableRng(seed), 6)
        table = reference_table(formula)
        assert [bool(formula.mask >> row & 1) for row in range(16)] == list(table)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200)
    def test_equal_masks_iff_equal_reference_tables(self, seed):
        rng = PortableRng(seed)
        # About 3 % of these shallow pairs share a mask, so both directions get exercised.
        x = random_formula(rng, 2 + rng.below(3))
        y = random_formula(rng, 2 + rng.below(3))
        assert (x.mask == y.mask) == (reference_table(x) == reference_table(y))


class TestAssignment:
    """A question's valuation is one truth-table row."""

    def test_ground_truth_has_one_true(self):
        for s in STATEMENTS:
            assert row_statements(truth_row(s)) == {s}
