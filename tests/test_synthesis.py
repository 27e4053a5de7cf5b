"""The tier table, pool enumeration, assembly, verification, and the baseline transforms."""

import importlib.util
import json
import os
import tempfile
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combicat import synthesis
from combicat.bankio import BankFormatError, load_bank, load_json, save_comb_bank
from combicat.logic import (
    STATEMENTS,
    And,
    Not,
    Or,
    PatternKind,
    SHAPES,
    Statement,
    Var,
    classify,
    render,
    truth_row,
)
from combicat.synthesis import (
    NOTA_TEXT,
    OPTION_LETTERS,
    AtomicQuestion,
    CombinatorialQuestion,
    InfeasibleTierError,
    OptionEntry,
    QuestionFormatError,
    TierConfig,
    apply_nota,
    assemble,
    pools,
    shuffle_options,
    synthesize_bank,
    synthesize_question,
    tier_config,
    tier_row,
    verify,
)
from conftest import make_atomic_question
from combicat.rng import PortableRng
from oracle import (
    reference_assemble,
    reference_comb_from_record,
    reference_evaluate,
    reference_pools,
    reference_verify,
    row_statements,
)

TIERS = ("Easy", "Medium", "Hard", "Expert")

# Hand-derived by enumerating the generation rules: valid formulas per tier,
# distractor formulas per tier. Independent of option count and answer index.
EXPECTED_POOL_SIZES = {
    "Easy": (1, 4),
    "Medium": (4, 7),
    "Hard": (7, 8),
    "Expert": (10, 9),
}


class TestAtomize:
    def test_answer_one_marks_only_first_variable(self):
        question = make_atomic_question(0, "I")
        assert len(assemble(question, tier_config("Hard"), 5).statements) == 4
        assert row_statements(truth_row(question.answer_index())) == {Statement.I}

    def test_answer_four_marks_only_last_variable(self):
        combinatorial = assemble(make_atomic_question(0, "IV"), tier_config("Hard"), 5)
        assert row_statements(combinatorial.truth_row()) == {Statement.IV}

    def test_statements_restate_option_texts(self):
        question = make_atomic_question(3, "II")
        assert assemble(question, tier_config("Medium"), 3).statements == tuple(question.option_list())

    def test_five_options_rejected(self):
        with pytest.raises(QuestionFormatError, match="not four atomic options"):
            AtomicQuestion(
                id="bad",
                context="c",
                options={"I": "a", "II": "b", "III": "c", "IV": "d", "V": "e"},
                answer="I",
            )

    def test_answer_outside_options_rejected(self):
        with pytest.raises(QuestionFormatError):
            AtomicQuestion(id="bad", context="c", options={"I": "a", "II": "b", "III": "c", "IV": "d"}, answer="V")

    def test_repeated_option_text_rejected(self):
        record = {"id": "dup", "context": "c", "options": {"I": "a", "II": "b", "III": "a", "IV": "d"}, "answer": "II"}
        with pytest.raises(QuestionFormatError, match="options I, III repeat one text"):
            AtomicQuestion(**record)
        with pytest.raises(QuestionFormatError, match="repeat one text"):
            AtomicQuestion.from_record(record)


class TestTierTable:
    def test_rows_in_ladder_order(self):
        assert tuple(synthesis.TIERS) == TIERS
        assert all(tier_row(name) is synthesis.TIERS[name] for name in TIERS)

    def test_each_tier_widens_the_allowed_family(self):
        allowed = [tier_row(name).allowed for name in TIERS]
        assert all(lower < higher for lower, higher in zip(allowed, allowed[1:]))

    def test_discrimination_ladder(self):
        assert [tier_row(name).discrimination for name in TIERS] == [0.8, 1.2, 1.6, 2.0]

    def test_unknown_tier_rejected(self):
        for lookup in (tier_row, tier_config):
            with pytest.raises(ValueError, match="^unknown tier 'Impossible'$"):
                lookup("Impossible")

    def test_config_reads_its_row(self):
        for name in TIERS:
            row, cfg = tier_row(name), tier_config(name, 8)
            assert (cfg.allowed_patterns, cfg.required_patterns) == (row.allowed, row.required)
            assert (cfg.n_correct_min, cfg.n_correct_max) == row.answer_range
            assert cfg.n_options == (5 if name == "Easy" else 8)

    def test_benchmark_ladder_agrees(self):
        """The benchmark's own checks hold the same ladder, so an edit to one fails here first."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        rows = synthesis.TIERS.items()
        assert {name: row.answer_range for name, row in rows} == checks.TIER_ANSWER_RANGE
        assert {name: row.discrimination for name, row in rows} == checks.TIER_DISCRIMINATION
        assert {name: tuple(sorted(k.value for k in row.required)) for name, row in rows} == checks.TIER_REQUIRED


class TestPools:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("answer", STATEMENTS)
    def test_sizes_match_hand_enumeration(self, tier, answer):
        cfg = tier_config(tier)
        valid, distractor = pools(cfg.allowed_patterns, answer)
        assert (len(valid), len(distractor)) == EXPECTED_POOL_SIZES[tier]

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("answer", STATEMENTS)
    def test_truth_labels_by_truth_table(self, tier, answer):
        """Every pool member's label checks out against full enumeration."""
        valid, distractor = pools(tier_config(tier).allowed_patterns, answer)
        for shape in valid:
            assert reference_evaluate(shape.formula, {answer}) is True
        for shape in distractor:
            assert reference_evaluate(shape.formula, {answer}) is False

    def test_easy_valid_pool_is_the_answer_exactness(self):
        valid, _ = pools(tier_config("Easy").allowed_patterns, Statement.I)
        assert [(shape.kind, shape.statements) for shape in valid] == [(PatternKind.EXACTNESS, (Statement.I,))]

    def test_distractor_pool_always_ends_with_universal_none(self):
        for tier in TIERS:
            _, distractor = pools(tier_config(tier).allowed_patterns, Statement.II)
            assert classify(distractor[-1].formula).kind is PatternKind.UNIVERSAL_NONE

    @pytest.mark.parametrize("answer", STATEMENTS)
    def test_pools_match_the_hand_enumeration(self, answer):
        """Every subset of the four requirement-bearing kinds, against ``reference_pools``."""
        kinds = [PatternKind.EXACTNESS, PatternKind.DISJUNCTION, PatternKind.NEGATION, PatternKind.COMPOUND_NEGATION]
        for size in range(len(kinds) + 1):
            for allowed in map(frozenset, combinations(kinds, size)):
                for pool, reference in zip(pools(allowed, answer), reference_pools(allowed, answer)):
                    assert [(shape.kind, shape.statements, shape.formula.serialized) for shape in pool] == [
                        (kind, statements, formula.serialized) for kind, statements, formula in reference
                    ]


class TestAssemble:
    def test_deterministic_byte_identical(self):
        question = make_atomic_question(1, "II")
        cfg = tier_config("Expert")
        first = json.dumps(assemble(question, cfg, 99).to_record(), sort_keys=True)
        second = json.dumps(assemble(question, cfg, 99).to_record(), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        question = make_atomic_question(1, "II")
        cfg = tier_config("Expert")
        records = {json.dumps(assemble(question, cfg, s).to_record(), sort_keys=True) for s in range(8)}
        assert len(records) > 1

    @pytest.mark.parametrize("answer", ["I", "II", "III", "IV"])
    def test_expert_presents_disjunction_and_negation(self, answer):
        question = make_atomic_question(2, answer)
        cfg = tier_config("Expert")
        for seed in range(25):
            combinatorial = assemble(question, cfg, seed)
            kinds = [found.kind if (found := classify(e.formula)) else None for e in combinatorial.options]
            assert PatternKind.DISJUNCTION in kinds
            assert any(k in (PatternKind.NEGATION, PatternKind.COMPOUND_NEGATION) for k in kinds)

    def test_hard_presents_negation(self):
        question = make_atomic_question(2, "III")
        cfg = tier_config("Hard")
        for seed in range(25):
            combinatorial = assemble(question, cfg, seed)
            shapes = [classify(e.formula) for e in combinatorial.options]
            assert any(shape and shape.kind in (PatternKind.NEGATION, PatternKind.COMPOUND_NEGATION) for shape in shapes)

    def test_answer_set_bounds(self):
        for tier in TIERS:
            cfg = tier_config(tier)
            question = make_atomic_question(4, "I")
            combinatorial = assemble(question, cfg, 7)
            assert 1 <= len(combinatorial.answer_set) < len(combinatorial.options)

    def test_source_option_text_absent_from_options(self):
        question = make_atomic_question(5, "III")
        combinatorial = assemble(question, tier_config("Medium"), 3)
        correct_text = question.options["III"]
        assert all(correct_text != entry.text for entry in combinatorial.options)

    def test_easy_capped_at_five_options(self):
        combinatorial = assemble(make_atomic_question(6, "II"), tier_config("Easy", 6), 1)
        assert len(combinatorial.options) == 5

    def test_infeasible_config_raises(self):
        cfg = TierConfig(
            tier="Easy",
            allowed_patterns=frozenset({PatternKind.EXACTNESS}),
            required_patterns=frozenset(),
            n_correct_min=2,
            n_correct_max=2,
            n_options=5,
        )
        with pytest.raises(InfeasibleTierError):
            assemble(make_atomic_question(0, "I"), cfg, 0)

    def test_answer_count_range_must_sit_below_option_count(self):
        with pytest.raises(ValueError):
            TierConfig(
                tier="bad",
                allowed_patterns=frozenset({PatternKind.EXACTNESS}),
                required_patterns=frozenset(),
                n_correct_min=1,
                n_correct_max=6,
                n_options=6,
            )
        with pytest.raises(ValueError):
            tier_config("Medium", n_options=9)

    def test_record_round_trip(self):
        combinatorial = assemble(make_atomic_question(8, "IV"), tier_config("Hard"), 11)
        restored = CombinatorialQuestion.from_record(
            json.loads(json.dumps(combinatorial.to_record()))
        )
        assert restored == combinatorial

    def test_zh_question_renders_zh_options(self):
        question = AtomicQuestion(
            id="zh1",
            context="以下哪项陈述成立？",
            options={"I": "甲队获胜", "II": "乙队获胜", "III": "丙队获胜", "IV": "丁队获胜"},
            answer="II",
            language="zh",
        )
        combinatorial = assemble(question, tier_config("Expert"), 6)
        assert not verify(combinatorial)
        for entry in combinatorial.options:
            assert "statement" not in entry.text
            assert "陈述" in entry.text


class TestVerify:
    def test_fresh_assembly_is_valid(self):
        combinatorial = assemble(make_atomic_question(9, "I"), tier_config("Expert"), 13)
        assert verify(combinatorial) == ()

    def test_mislabeled_option_flags_truth_mismatch(self):
        combinatorial = assemble(make_atomic_question(9, "I"), tier_config("Hard"), 13)
        wrong_letter = next(
            entry.letter
            for entry in combinatorial.options
            if entry.letter not in combinatorial.answer_set
        )
        tampered = CombinatorialQuestion(
            **{
                **combinatorial.__dict__,
                "answer_set": combinatorial.answer_set | {wrong_letter},
            }
        )
        violations = verify(tampered)
        assert any(v.rule == "truth-mismatch" for v in violations)

    def test_full_answer_set_flags_degenerate(self):
        combinatorial = assemble(make_atomic_question(9, "II"), tier_config("Medium"), 13)
        tampered = CombinatorialQuestion(
            **{
                **combinatorial.__dict__,
                "answer_set": frozenset(e.letter for e in combinatorial.options),
            }
        )
        violations = verify(tampered)
        assert any(v.rule == "degenerate-answer-set" for v in violations)

    def test_duplicate_formula_detected(self):
        combinatorial = assemble(make_atomic_question(9, "III"), tier_config("Medium"), 13)
        options = list(combinatorial.options)
        clone = options[0].__class__(options[1].letter, options[0].formula, options[0].text)
        options[1] = clone
        tampered = CombinatorialQuestion(
            **{**combinatorial.__dict__, "options": tuple(options)}
        )
        violations = verify(tampered)
        assert any(v.rule == "duplicate-formula" for v in violations)

    def test_missing_required_pattern_detected(self):
        combinatorial = assemble(make_atomic_question(9, "IV"), tier_config("Medium"), 13)
        relabeled = CombinatorialQuestion(
            **{**combinatorial.__dict__, "tier": "Expert"}
        )
        violations = verify(relabeled)
        assert any(v.rule == "missing-required-pattern" for v in violations)

    def test_unknown_answer_letter_detected(self):
        combinatorial = assemble(make_atomic_question(9, "I"), tier_config("Expert"), 13)
        tampered = CombinatorialQuestion(
            **{**combinatorial.__dict__, "answer_set": combinatorial.answer_set | {"Z"}}
        )
        violations = verify(tampered)
        assert [v.rule for v in violations] == ["unknown-letter"]
        assert violations[0].letter == "Z"

    def test_out_of_order_letters_detected(self):
        combinatorial = assemble(make_atomic_question(9, "II"), tier_config("Hard"), 13)
        options = list(combinatorial.options)
        options[0], options[1] = options[1], options[0]
        tampered = CombinatorialQuestion(**{**combinatorial.__dict__, "options": tuple(options)})
        violations = verify(tampered)
        assert [v.rule for v in violations] == ["letter-order"]

    def test_text_that_misstates_its_formula_detected(self):
        # The responder sees only the text, so "Only statement IV is correct"
        # over NOT(VAR(II)) changes the question even though the label holds.
        cfg = tier_config("Hard")
        question = make_atomic_question(9, "I")
        combinatorial = next(
            q
            for q in (assemble(question, cfg, seed) for seed in range(64))
            if any(e.formula == Not(Var(Statement.II)) for e in q.options)
        )
        options = tuple(
            OptionEntry(e.letter, e.formula, "Only statement IV is correct")
            if e.formula == Not(Var(Statement.II))
            else e
            for e in combinatorial.options
        )
        tampered = CombinatorialQuestion(**{**combinatorial.__dict__, "options": options})
        violations = verify(tampered)
        assert [v.rule for v in violations] == ["text-mismatch"]

    def test_answer_count_outside_tier_range_detected(self):
        combinatorial = assemble(make_atomic_question(9, "III"), tier_config("Expert"), 13)
        assert len(combinatorial.answer_set) >= 2
        relabeled = CombinatorialQuestion(**{**combinatorial.__dict__, "tier": "Easy"})
        violations = verify(relabeled)
        assert [v.rule for v in violations] == ["answer-count"]

    def test_unknown_language_detected(self):
        combinatorial = assemble(make_atomic_question(9, "I"), tier_config("Expert"), 13)
        tampered = CombinatorialQuestion(**{**combinatorial.__dict__, "language": "fr"})
        violations = verify(tampered)
        assert [v.rule for v in violations] == ["unknown-language"]


    def test_option_of_no_shape_detected(self):
        combinatorial = assemble(make_atomic_question(9, "I"), tier_config("Medium"), 13)
        letter = next(e.letter for e in combinatorial.options if e.letter not in combinatorial.answer_set)
        free = And(Var(Statement.I), Var(Statement.II))  # false in every question's row
        options = tuple(replace(e, formula=free) if e.letter == letter else e for e in combinatorial.options)
        violations = verify(replace(combinatorial, options=options))
        assert [(v.letter, v.rule, v.message) for v in violations] == [
            (letter, "unknown-shape", f"option {letter} formula AND(VAR(I),VAR(II)) is none of the 21 option shapes")
        ]

    def test_de_morgan_form_of_a_shape_loads(self, tmp_path):
        compound = And(Not(Var(Statement.I)), Not(Var(Statement.II)))
        combinatorial = next(
            q
            for q in (assemble(make_atomic_question(9, "III"), tier_config("Expert"), seed) for seed in range(64))
            if any(e.formula == compound for e in q.options)
        )
        de_morgan = Not(Or(Var(Statement.I), Var(Statement.II)))
        options = tuple(replace(e, formula=de_morgan) if e.formula == compound else e for e in combinatorial.options)
        path = tmp_path / "comb.json"
        save_comb_bank(str(path), [replace(combinatorial, options=options)])
        (loaded,) = load_bank(str(path))
        assert "NOT(OR(VAR(I),VAR(II)))" in [e.formula.serialized for e in loaded.options]
        assert verify(loaded) == ()


class TestSynthesizeLoop:
    def test_returns_zero_regenerations_in_normal_operation(self):
        combinatorial, retries = synthesize_question(
            make_atomic_question(10, "I"), tier_config("Expert"), 21
        )
        assert retries == 0
        assert not verify(combinatorial)

    def test_bank_summary_counts(self):
        questions = [make_atomic_question(i) for i in range(8)]
        bank, summary = synthesize_bank(questions, seed=3, tier_for=lambda q: "Hard")
        assert summary.total == 8
        assert summary.tier_counts == {"Hard": 8}
        assert summary.regeneration_rate == 0.0
        assert len(bank) == 8

    def test_bank_is_seed_stable(self):
        questions = [make_atomic_question(i) for i in range(4)]
        first, _ = synthesize_bank(questions, seed=3, tier_for=lambda q: "Expert")
        second, _ = synthesize_bank(questions, seed=3, tier_for=lambda q: "Expert")
        assert [q.to_record() for q in first] == [q.to_record() for q in second]


@settings(max_examples=150, deadline=None)
@given(
    answer=st.sampled_from(["I", "II", "III", "IV"]),
    tier=st.sampled_from(TIERS),
    seed=st.integers(min_value=0, max_value=2**48),
)
def test_property_assembled_questions_always_verify(answer, tier, seed):
    """Validity by construction over random (answer, tier, seed) triples."""
    question = make_atomic_question(0, answer)
    cfg = tier_config(tier)
    combinatorial = assemble(question, cfg, seed)
    violations = verify(combinatorial)
    assert not violations, violations


@settings(max_examples=60, deadline=None)
@given(
    answer=st.sampled_from(["I", "II", "III", "IV"]),
    tier=st.sampled_from(TIERS),
    seed=st.integers(min_value=0, max_value=2**48),
)
def test_property_correct_options_true_under_truth(answer, tier, seed):
    question = make_atomic_question(0, answer)
    combinatorial = assemble(question, tier_config(tier), seed)
    true_statements = {Statement[combinatorial.source_answer]}
    for entry in combinatorial.options:
        expected = entry.letter in combinatorial.answer_set
        assert reference_evaluate(entry.formula, true_statements) == expected


FORMULAS = st.recursive(
    st.sampled_from(STATEMENTS).map(Var),
    lambda inner: inner.map(Not) | st.builds(And, inner, inner) | st.builds(Or, inner, inner),
    max_leaves=6,
)
MUTATIONS = ("text", "answer", "duplicate", "letter", "language", "free-form", "answer-count")


@st.composite
def mutated_questions(draw):
    """An assembled question with up to three edits, each of which may break a rule of ``verify``."""
    language = draw(st.sampled_from(["en", "zh"]))
    question = replace(make_atomic_question(0, draw(st.sampled_from(["I", "II", "III", "IV"]))), language=language)
    combinatorial = assemble(question, tier_config(draw(st.sampled_from(TIERS))), draw(st.integers(0, 2**48)))
    options = list(combinatorial.options)
    answer_set = set(combinatorial.answer_set)
    changes = {}
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = draw(st.integers(0, len(options) - 1))
        entry = options[i]
        if mutation == "text":
            texts = [other.text for other in options] + ["", "Only statement IV is correct", "(I ∧ II)"]
            options[i] = replace(entry, text=draw(st.sampled_from(texts)))
        elif mutation == "answer":
            answer_set ^= {entry.letter}
        elif mutation == "duplicate":
            options[i] = replace(entry, formula=draw(st.sampled_from(options)).formula)
        elif mutation == "letter":
            options[i] = replace(entry, letter=draw(st.sampled_from("ABCDEFGHZ")))
        elif mutation == "language":
            changes["language"] = draw(st.sampled_from(["en", "zh", "fr", ""]))
        elif mutation == "free-form":
            formula = draw(FORMULAS)
            texts = [entry.text] + ([render(formula, language)] if formula.mask in SHAPES else [])
            options[i] = replace(entry, formula=formula, text=draw(st.sampled_from(texts)))
        else:
            letters = [option.letter for option in options]
            answer_set = set(draw(st.lists(st.sampled_from(letters), max_size=len(letters))))
            changes["tier"] = draw(st.sampled_from(TIERS))
    return replace(combinatorial, options=tuple(options), answer_set=frozenset(answer_set), **changes)


@settings(max_examples=400, deadline=None)
@given(question=mutated_questions(), tier=st.sampled_from((None,) + TIERS))
def test_property_verify_matches_the_reference(question, tier):
    """Cached masks and texts report exactly what the per-call walk reports, rule for rule."""
    if tier is not None:
        question = replace(question, tier=tier)
    assert verify(question) == reference_verify(question)


def _reference_load(path, record):
    """The question ``load_bank`` should read from a one-record bank, or the error text it should report."""
    try:
        question = reference_comb_from_record(record)
        violations = reference_verify(question)
    except (KeyError, TypeError, ValueError) as exc:
        return f"{path}: record 0: " + (f"missing key {exc}" if isinstance(exc, KeyError) else str(exc))
    if violations:
        detail = "; ".join(f"{v.rule}: {v.message}" for v in violations)
        return f"{path}: record 0: question {question.id!r}: {detail}"
    return question


# Option fields of another JSON type, which only a bank file can hold. Each must
# fail naming its field: shared option entries are keyed by text, and 1, 1.0 and
# true would otherwise meet in one key.
ODD_FIELDS = st.tuples(
    st.sampled_from(["letter", "formula", "text"]),
    st.integers(0, 7),
    st.sampled_from([["A"], ["VAR(I)"], 1, 1.0, True, None, {"VAR": "I"}, 5]),
)


@settings(max_examples=200, deadline=None)
@given(question=mutated_questions(), edits=st.lists(ODD_FIELDS, max_size=2))
def test_property_load_bank_reports_the_reference_violations(question, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "comb.json")
        save_comb_bank(path, [question])
        data = load_json(path)
        options = data["questions"][0]["options"]
        for key, i, value in edits:
            options[i % len(options)][key] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        expected = _reference_load(path, data["questions"][0])
        if not isinstance(expected, str):
            assert load_bank(path) == [expected] == ([question] if not edits else [expected])
            return
        with pytest.raises(BankFormatError) as exc_info:
            load_bank(path)
    assert str(exc_info.value) == expected


@st.composite
def tier_configs(draw):
    """A built-in tier at 5..8 options, or any config ``TierConfig`` accepts, feasible or not."""
    if draw(st.booleans()):
        return tier_config(draw(st.sampled_from(TIERS)), draw(st.integers(5, 8)))
    allowed = draw(st.frozensets(st.sampled_from(list(PatternKind)), min_size=1))
    required = draw(st.frozensets(st.sampled_from(sorted(allowed, key=lambda kind: kind.value))))
    n_options = draw(st.integers(2, len(OPTION_LETTERS)))
    low = draw(st.integers(1, n_options - 1))
    return TierConfig("Custom", allowed, required, low, draw(st.integers(low, n_options - 1)), n_options)


@settings(max_examples=600, deadline=None)
@given(
    answer=st.sampled_from(["I", "II", "III", "IV"]),
    language=st.sampled_from(["en", "zh"]),
    cfg=tier_configs(),
    seed=st.integers(0, 2**64 - 1),
)
def test_property_assemble_matches_the_reference(answer, language, cfg, seed):
    """Pool flags, the direct index draw and shared entries build the question the per-question scans built."""
    question = replace(make_atomic_question(seed % 50, answer), language=language)
    try:
        expected = reference_assemble(question, cfg, seed)
    except InfeasibleTierError as exc:
        with pytest.raises(InfeasibleTierError) as exc_info:
            assemble(question, cfg, seed)
        assert str(exc_info.value) == str(exc)
        return
    actual = assemble(question, cfg, seed)
    assert actual == expected
    assert actual.to_record() == expected.to_record()


class _TopDraw(PortableRng):
    """A stream stuck at its largest word, so ``random()`` is ``1 - 2**-53``."""

    def next_u64(self) -> int:
        return (1 << 64) - 1


@settings(deadline=None)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2**64 - 1))
def test_direct_index_is_weighted_index_over_equal_weights(n, seed):
    assert min(int(PortableRng(seed).random() * n), n - 1) == PortableRng(seed).weighted_index([1.0] * n)
    assert min(int(_TopDraw(seed).random() * n), n - 1) == _TopDraw(seed).weighted_index([1.0] * n) == n - 1


class TestNota:
    def test_correct_text_replaced_answer_kept(self):
        question = make_atomic_question(0, "II")
        transformed = apply_nota(question)
        assert transformed.options["II"] == NOTA_TEXT
        assert transformed.answer == "II"

    def test_idempotent(self):
        question = make_atomic_question(0, "II")
        once = apply_nota(question)
        twice = apply_nota(once)
        assert once == twice

    def test_original_correct_text_gone(self):
        question = make_atomic_question(0, "III")
        transformed = apply_nota(question)
        assert question.options["III"] not in transformed.options.values()

    def test_other_options_untouched(self):
        question = make_atomic_question(0, "I")
        transformed = apply_nota(question)
        for label in ("II", "III", "IV"):
            assert transformed.options[label] == question.options[label]


class TestShuffle:
    def test_answer_follows_correct_text(self):
        question = make_atomic_question(0, "II")
        for seed in range(40):
            shuffled = shuffle_options(question, seed)
            assert shuffled.options[shuffled.answer] == question.options["II"]

    def test_multiset_of_texts_preserved(self):
        question = make_atomic_question(0, "IV")
        shuffled = shuffle_options(question, 17)
        assert sorted(shuffled.options.values()) == sorted(question.options.values())

    def test_identity_permutation_exists(self):
        question = make_atomic_question(0, "I")
        assert any(shuffle_options(question, seed) == question for seed in range(64))

    def test_deterministic(self):
        question = make_atomic_question(0, "III")
        assert shuffle_options(question, 23) == shuffle_options(question, 23)

    @given(seed=st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=80)
    def test_property_shuffle_is_a_permutation(self, seed):
        question = make_atomic_question(1, "II")
        shuffled = shuffle_options(question, seed)
        assert sorted(shuffled.options.values()) == sorted(question.options.values())
        assert shuffled.options[shuffled.answer] == question.options["II"]
