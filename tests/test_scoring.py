"""Metric extraction, z-normalization, the aggregate score, and tier cutoffs."""

import json
import math
import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combicat import scoring
from combicat.scoring import (
    OFFSET,
    METRIC_NAMES,
    SCORED_METRICS,
    CorpusError,
    CorpusStats,
    Marker,
    MarkerSet,
    ThinkingTrace,
    TraceIndex,
    _final_answer_span,
    _ordered_chains,
    _is_word,
    extract_metrics,
    fallacy_penalty,
    fold,
    gold_score,
    load_lexicons,
    normalize_against,
    shannon_entropy,
    stratify,
    trace_index,
    z_normalize,
)
from conftest import make_atomic_bank, make_trace_corpus
from oracle import (
    reference_fallacy_penalty,
    reference_final_answer_span,
    reference_lexicon_groups,
    reference_marker_pattern,
    reference_ordered_pairs,
    reference_ordered_triples,
    reference_positions,
    reference_scan_count,
    reference_scan_positions,
    reference_scores,
)


@pytest.fixture(scope="module")
def lexicons():
    return load_lexicons()


def trace(text: str, question_id: str = "t") -> ThinkingTrace:
    return ThinkingTrace.from_text(question_id, text)


def constant_metrics(value: float = 1.0, tokens: int = 100, segments: int = 2) -> dict[str, float]:
    return {**dict.fromkeys(SCORED_METRICS, value), "token_count": float(tokens), "segment_count": float(segments)}


class TestExtraction:
    def test_reversal_marker_count(self, lexicons):
        m = extract_metrics(trace("However the claim fails. However, wait."), lexicons)
        assert m["oscillation"] == 3

    def test_logic_density_per_hundred_tokens(self, lexicons):
        # 200 filler tokens, of which 4 are connectives
        words = ["noun"] * 196 + ["and", "or", "therefore", "because"]
        m = extract_metrics(trace(" ".join(words)), lexicons)
        assert m["token_count"] == 200
        assert m["logic_density"] == pytest.approx(2.0)

    def test_empty_trace_all_zero(self, lexicons):
        assert extract_metrics(trace(""), lexicons) == dict.fromkeys(METRIC_NAMES, 0.0)

    def test_abductive_pairs_in_order(self, lexicons):
        text = "Suppose A holds. We can rule out B. Suppose C. That is impossible."
        m = extract_metrics(trace(text), lexicons)
        assert m["abductive_depth"] == 2

    def test_elimination_before_hypothesis_does_not_pair(self, lexicons):
        m = extract_metrics(trace("Rule out B. Done."), lexicons)
        assert m["abductive_depth"] == 0

    def test_dialectic_triples(self, lexicons):
        text = "On one hand X. On the other hand Y. On balance, Z."
        m = extract_metrics(trace(text), lexicons)
        assert m["dialectic_tension"] == 1

    def test_chain_steps_count_numbered_lines(self, lexicons):
        text = "1. observe\n2. deduce\n3. conclude"
        m = extract_metrics(trace(text), lexicons)
        assert m["chain_steps"] >= 3

    def test_segments_split_on_blank_lines(self, lexicons):
        m = extract_metrics(trace("one block\n\nsecond block\n\n\nthird"), lexicons)
        assert m["segment_count"] == 3

    def test_trailing_whitespace_invariance(self, lexicons):
        base = "However the answer is clear.\n\nSuppose not; rule out the rest."
        a = extract_metrics(trace(base), lexicons)
        b = extract_metrics(trace(base + "   \n\n  \n"), lexicons)
        for name in SCORED_METRICS:
            if name == "logic_density":
                continue  # density is per token and the token count is unchanged
            assert a[name] == b[name]
        assert a["segment_count"] == b["segment_count"]

    def test_deterministic(self, lexicons):
        text = "However, maybe A. Clearly B. Perhaps C."
        assert extract_metrics(trace(text), lexicons) == extract_metrics(trace(text), lexicons)

    def test_abstraction_level_takes_highest_class(self, lexicons):
        m = extract_metrics(trace("Specifically, this case. As a principle, all cases."), lexicons)
        assert m["abstraction_level"] == 3

    def test_zh_markers_counted(self, lexicons):
        m = extract_metrics(trace("但是这个结论不对。因此排除选项B。"), lexicons)
        assert m["oscillation"] >= 1
        assert m["logic_density"] > 0


PACKAGED_GROUPS = reference_lexicon_groups()
PACKAGED_MARKERS = sorted({marker for markers in PACKAGED_GROUPS.values() for marker in markers})

# Each character's spellings that re.IGNORECASE treats alike, with the
# Turkish dotted and dotless i, the long s and the Kelvin sign.
CASE_VARIANTS = {"i": "iIİı", "s": "sSſ", "k": "kK\u212a"}


@st.composite
def cased_marker(draw):
    marker = draw(st.sampled_from(PACKAGED_MARKERS))
    return "".join(draw(st.sampled_from(CASE_VARIANTS.get(ch.lower(), ch.lower() + ch.upper()))) for ch in marker)


# Neighbours that make or break a word boundary: CJK (a word character, so
# "如果if" has no boundary before "if"), underscore, digits, case-folding edge
# cases, punctuation and plain letters, and "等", which overlaps the marker "等等".
NEIGHBOURS = st.sampled_from(
    ["İ", "ı", "ſ", "\u212a", "ß", "ẞ", "如果", "但是", "等", "_", "7", "0", ",", "'", "-", "a", "S", ".", "？"]
)
SEPARATORS = st.sampled_from(["", " ", " ", ", ", "\n\n", "\n"])
TEXTS = st.lists(st.tuples(st.one_of(cased_marker(), NEIGHBOURS), SEPARATORS), max_size=24).map(
    lambda parts: "".join(piece + separator for piece, separator in parts)
)


class TestMarkerScan:
    @given(TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_every_packaged_marker_matches_its_regex(self, text):
        folded = fold(text)
        for marker in PACKAGED_MARKERS:
            expected = reference_positions([marker], text)
            assert Marker.parse(marker).starts(text, folded) == expected, marker

    @given(TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_scores_match_the_regex_scorer(self, lexicons, text):
        t = trace(text)
        metrics = extract_metrics(t, lexicons)
        assert list(metrics) == list(METRIC_NAMES) and all(type(value) is float for value in metrics.values())
        assert (metrics, fallacy_penalty(t, lexicons)) == reference_scores(t, PACKAGED_GROUPS)

    def test_folding_edge_cases(self):
        marker = Marker.parse("if")
        cases = [("İF ıf", [0, 3]), ("如果if", []), ("if_", []), ("_if", []), ("if7", []), ("(If)", [1]), ("ifif", [])]
        for text, hits in cases:
            assert marker.starts(text, fold(text)) == hits, text
            assert [m.start() for m in reference_marker_pattern("if").finditer(text)] == hits, text
        assert Marker.parse("\u212aNOW") == Marker.parse("know") == Marker("know", True)
        assert Marker.parse("如果") == Marker("如果", False)
        assert Marker.parse("Ἀ") == Marker("Ἀ", False)

    def test_fold_over_every_code_point(self):
        """fold keeps positions, word classes and re.IGNORECASE's matches of marker characters,
        and the classes the assertion pattern reads: a raw character falls in the same one
        of them under re.IGNORECASE as its fold does without it."""
        word = re.compile(r"\w")
        marker_char = re.compile(r"[a-z0-9' ,-]", re.IGNORECASE)
        marker_chars = set("abcdefghijklmnopqrstuvwxyz0123456789' ,-")
        assertion_classes = r"([a-h])|([i-z])|(\s)|([():])"
        caseless_class = re.compile(assertion_classes, re.IGNORECASE)
        folded_class = re.compile(assertion_classes)
        for code in range(sys.maxunicode + 1):
            c = chr(code)
            f = fold(c)
            assert len(f) == 1, hex(code)
            is_word = word.fullmatch(c) is not None
            assert _is_word(c) == is_word, hex(code)
            assert (word.fullmatch(f) is not None) == is_word, hex(code)
            assert (marker_char.fullmatch(c) is not None) == (f in marker_chars), hex(code)
            raw_match, folded_match = caseless_class.fullmatch(c), folded_class.fullmatch(f)
            assert (raw_match and raw_match.lastindex) == (folded_match and folded_match.lastindex), hex(code)


def lexicon_entries(lexicons):
    """Every ``MarkerSet`` of the lexicons, those of each epistemic class and abstraction level included."""
    for value in lexicons.values():
        yield from value.values() if isinstance(value, dict) else [value]


class TestTraceIndex:
    @given(TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_index_matches_the_scan_of_every_marker(self, lexicons, text):
        index, folded = TraceIndex(text), fold(text)
        for entry in lexicon_entries(lexicons):
            assert index.count(entry) == reference_scan_count(entry.markers, text, folded), entry
            assert index.positions(entry) == reference_scan_positions(entry.markers, text, folded), entry

    @pytest.mark.parametrize(
        "text, ascii_fold, connectives",
        [
            ("If it rains, so be it; if not, then go.", True, 5),
            ("İf it rains, ſo be it.", True, 2),  # the raw text is not ASCII, its fold is
            ("\u212aNOW if", True, 1),  # "know" is one run: no "no" or "not" inside it
            ("if_ _if if7 7if 7 if", True, 1),  # "_" and digits are word characters
            ("如果if 但是 if。So", False, 3),  # "如果" and two of the three "if"/"so" hit
            ("if_ 如果 7if If", False, 2),
        ],
    )
    def test_each_path_counts_as_the_scan(self, lexicons, text, ascii_fold, connectives):
        index, folded = TraceIndex(text), fold(text)
        assert index.exact == ascii_fold
        assert index.count(lexicons["connectives"]) == connectives
        for entry in lexicon_entries(lexicons):
            assert index.count(entry) == reference_scan_count(entry.markers, text, folded), entry
            assert index.positions(entry) == reference_scan_positions(entry.markers, text, folded), entry
        assert (extract_metrics(trace(text), lexicons), fallacy_penalty(trace(text), lexicons)) == reference_scores(
            trace(text), PACKAGED_GROUPS
        )

    @pytest.mark.parametrize(
        "text, hits",
        [
            ("\u212anow?! I know, re-examine; Re-Examine_ re-examined", 4),
            ("Huh?! I KNOW: re-examine?!", 4),  # an ASCII text: "?!" is counted without a set of its characters
            ("?!知道 know", 2),
        ],
    )
    def test_markers_outside_the_packaged_lexicons(self, text, hits):
        entry = MarkerSet.of([Marker.parse("KNOW"), Marker.parse("?!"), Marker.parse("re-examine")])
        index = TraceIndex(text)
        assert index.count(entry) == reference_scan_count(entry.markers, text, fold(text)) == hits
        assert index.positions(entry) == reference_scan_positions(entry.markers, text, fold(text))

    def test_long_traces_match_the_regex_scorer(self, lexicons):
        """Every 16th trace of a corpus log-spaced from 30 to 30,000 tokens, the longest among them."""
        for row in make_trace_corpus(make_atomic_bank(240))[15::16]:
            t = trace(row["text"], row["question_id"])
            assert (extract_metrics(t, lexicons), fallacy_penalty(t, lexicons)) == reference_scores(t, PACKAGED_GROUPS)


class TestLexiconRules:
    @pytest.fixture
    def packaged_as(self, monkeypatch, tmp_path):
        """Load lexicons from ``tmp_path`` instead of the package, both files empty until written."""
        monkeypatch.setattr(scoring, "resources", SimpleNamespace(files=lambda package: tmp_path))

        def write(name: str, raw: dict) -> None:
            (tmp_path / f"lexicon_{name}.json").write_text(json.dumps(raw, ensure_ascii=False), "utf-8")

        write("en", {})
        write("zh", {})
        return write

    def test_packaged_lexicons_load(self):
        literals = [marker.literal for marker in scoring.load_lexicons()["reversal"].markers]
        assert "however" in literals and "但是" in literals  # English and Chinese, merged

    @pytest.mark.parametrize(
        "raw, where, problem",
        [
            ({"reversal": ["however", ""]}, "lexicon_en.json: reversal", "empty marker ''"),
            ({"epistemic": {"certain": ["clearly", " \t"]}}, "lexicon_en.json: epistemic.certain", "empty marker"),
            ({"pivot": ["instead", 5]}, "lexicon_en.json: pivot", "marker 5 is not a string"),
            ({"abstraction": {"2": [["in general"]]}}, "lexicon_en.json: abstraction.2", "is not a string"),
            ({"reversal": ["However", "however"]}, "lexicon_en.json: reversal", "'however' repeats"),
            ({"reversal": ["wait", "ſtop", "STOP"]}, "lexicon_en.json: reversal", "'STOP' repeats"),
            ({"abstraction": {"two": ["in general"]}}, "lexicon_en.json: abstraction.two", "level 'two' is not an integer"),
        ],
    )
    def test_bad_marker_rejected_naming_lexicon_and_key(self, packaged_as, raw, where, problem):
        packaged_as("en", raw)
        with pytest.raises(ValueError, match=re.escape(where) + ": .*" + re.escape(problem)):
            scoring.load_lexicons()

    def test_repeat_across_locales_rejected_after_merging(self, packaged_as):
        packaged_as("en", {"reversal": ["but"], "connectives": ["。"]})
        scoring.load_lexicons()
        packaged_as("zh", {"reversal": ["但是"], "connectives": ["。"]})
        with pytest.raises(ValueError, match=r"lexicon_zh\.json: connectives: marker '。' repeats"):
            scoring.load_lexicons()

    def test_same_marker_in_two_metrics_allowed(self, packaged_as):
        packaged_as("en", {"hypothesis": ["suppose"], "thesis": ["suppose"]})
        lexicons = scoring.load_lexicons()
        assert lexicons["hypothesis"] == lexicons["thesis"] == MarkerSet.of([Marker("suppose", True)])


# Positions drawn from a narrow range, so hits of different stages often tie.
POSITIONS = st.lists(st.integers(min_value=0, max_value=12), max_size=10)


class TestOrderedChains:
    @given(POSITIONS, POSITIONS)
    @settings(max_examples=300)
    def test_two_stages_match_the_pair_matcher(self, first, second):
        assert _ordered_chains(first, second) == reference_ordered_pairs(first, second)

    @given(POSITIONS, POSITIONS, POSITIONS)
    @settings(max_examples=300)
    def test_three_stages_match_the_triple_matcher(self, first, second, third):
        assert _ordered_chains(first, second, third) == reference_ordered_triples(first, second, third)

    def test_equal_positions_order_earlier_stages_first(self):
        assert _ordered_chains([4], [4]) == 1
        assert _ordered_chains([4], [4], [4]) == 1
        assert _ordered_chains([5], [4]) == 0


class TestEntropy:
    def test_single_class_zero(self, lexicons):
        m = extract_metrics(trace("clearly clearly clearly certain? clearly"), lexicons)
        assert m["uncertainty_entropy"] == 0.0

    def test_uniform_two_classes(self, lexicons):
        m = extract_metrics(trace("clearly yes. maybe no."), lexicons)
        assert m["uncertainty_entropy"] == pytest.approx(math.log(2))

    def test_uniform_four_classes_hits_maximum(self, lexicons):
        text = "clearly one. probably two. maybe three. unlikely four."
        m = extract_metrics(trace(text), lexicons)
        assert m["uncertainty_entropy"] == pytest.approx(math.log(4))

    def test_bounded_by_class_count(self, lexicons):
        text = "clearly, probably, maybe, unlikely, definitely, likely, perhaps, doubtful."
        m = extract_metrics(trace(text), lexicons)
        assert 0.0 <= m["uncertainty_entropy"] <= math.log(len(lexicons["epistemic"])) + 1e-12

    def test_helper_on_raw_counts(self):
        assert shannon_entropy([5, 0, 0]) == 0.0
        assert shannon_entropy([2, 2, 2]) == pytest.approx(math.log(3))
        assert shannon_entropy([]) == 0.0


class TestNormalization:
    def test_two_trace_corpus_gives_plus_minus_one(self):
        a = constant_metrics(1.0)
        b = constant_metrics(3.0)
        z_rows, stats = z_normalize([a, b])
        for name in SCORED_METRICS:
            assert z_rows[0][name] == pytest.approx(-1.0)
            assert z_rows[1][name] == pytest.approx(1.0)
        assert stats.means["logic_density"] == pytest.approx(2.0)

    def test_constant_metric_floors_to_zero(self):
        rows, _ = z_normalize([constant_metrics(2.0), constant_metrics(2.0)])
        for row in rows:
            assert all(value == 0.0 for value in row.values())

    def test_normalized_means_are_zero(self):
        corpus = [constant_metrics(float(v)) for v in (1, 2, 5, 9)]
        rows, _ = z_normalize(corpus)
        for name in SCORED_METRICS:
            mean = sum(row[name] for row in rows) / len(rows)
            assert abs(mean) < 1e-9

    def test_single_trace_rejected(self):
        with pytest.raises(CorpusError, match="insufficient corpus"):
            z_normalize([constant_metrics(1.0)])

    def test_frozen_stats_round_trip(self):
        _, stats = z_normalize([constant_metrics(1.0), constant_metrics(3.0)])
        restored = CorpusStats.from_dict(stats.to_dict())
        z = normalize_against(restored, constant_metrics(3.0))
        assert z["oscillation"] == pytest.approx(1.0)


class TestGoldScore:
    def test_all_zero_z_lands_on_offset(self):
        z = {name: 0.0 for name in SCORED_METRICS}
        score = gold_score(z)
        assert score == pytest.approx(23.2)
        assert stratify(score) == "Medium"

    def test_uniform_ones_shift_by_nine(self):
        z = {name: 1.0 for name in SCORED_METRICS}
        score = gold_score(z)
        assert score == pytest.approx(32.2)
        assert stratify(score) == "Expert"

    def test_penalty_subtracts_linearly(self):
        z = {name: 0.5 for name in SCORED_METRICS}
        clean = gold_score(z, fallacy_score=0.0)
        hit = gold_score(z, fallacy_score=5.0)
        assert clean - hit == pytest.approx(5.0)

    def test_linearity_around_offset(self):
        za = {name: 0.3 * i for i, name in enumerate(SCORED_METRICS)}
        zb = {name: -0.1 * i for i, name in enumerate(SCORED_METRICS)}
        zsum = {name: za[name] + zb[name] for name in SCORED_METRICS}
        lhs = gold_score(zsum) - OFFSET
        rhs = (gold_score(za) - OFFSET) + (gold_score(zb) - OFFSET)
        assert lhs == pytest.approx(rhs)

    def test_missing_z_entry_rejected(self):
        with pytest.raises(ValueError, match="missing z-score"):
            gold_score({"oscillation": 1.0})


class TestStratify:
    def test_boundaries(self):
        assert stratify(19.99) == "Easy"
        assert stratify(20.0) == "Medium"
        assert stratify(25.0) == "Hard"
        assert stratify(30.0) == "Expert"

    def test_partitions_the_line(self):
        for value in (-100.0, 0.0, 19.999999, 20.0, 24.999999, 25.0, 29.999999, 30.0, 1e9):
            assert stratify(value) in ("Easy", "Medium", "Hard", "Expert")

    @given(st.floats(min_value=-50, max_value=80, allow_nan=False))
    @settings(max_examples=200)
    def test_monotone_non_decreasing(self, value):
        order = {"Easy": 0, "Medium": 1, "Hard": 2, "Expert": 3}
        assert order[stratify(value)] <= order[stratify(value + 0.5)]


class TestFallacyPenalty:
    def test_assertion_then_different_final_line(self, lexicons):
        t = trace("The premise is sound, the answer is B.\nC")
        assert fallacy_penalty(t, lexicons) >= 1.0

    def test_consistent_trace_scores_zero(self, lexicons):
        t = trace("The answer is B because the premise holds.\nB")
        assert fallacy_penalty(t, lexicons) == 0.0

    def test_two_mismatched_assertions_count_twice(self, lexicons):
        t = trace("First the answer is B.\nLater the answer is D.\nC")
        assert fallacy_penalty(t, lexicons) == 2.0

    def test_explicit_contradiction_marker_counts(self, lexicons):
        t = trace("This is where I contradict myself badly.\nA")
        assert fallacy_penalty(t, lexicons) >= 1.0

    def test_no_final_answer_no_mismatch(self, lexicons):
        t = trace("the answer is B and that is all I will say about it")
        # the final line contains prose, still parses the letter B, consistent
        assert fallacy_penalty(t, lexicons) == 0.0

    def test_penalty_reads_the_index_of_the_metrics(self, lexicons):
        t = trace("The answer is B.\nMaybe C. However, I contradict myself.\nC")
        trace_index.cache_clear()
        extract_metrics(t, lexicons)
        fallacy_penalty(t, lexicons)
        assert (trace_index.cache_info().misses, trace_index.cache_info().hits) == (1, 1)


# Every line break str.splitlines honours, CRLF, blank and decorated lines,
# answer assertions (in either case, with a long s, across a line break) and
# bare letters.
LINE_PIECES = st.sampled_from(
    ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x1f", " ", "\t",
     "**", "`", "'", "_", "the answer is B", "Final answer: (c)", "answer: D", "A", "C, D", "B", "x", "等",
     "I contradict myself", "ANSWER IS b", "the anſwer is c", "answer is\nc", "İs", "ſhould be (E)"]
)
LINE_TEXTS = st.lists(LINE_PIECES, max_size=16).map("".join)


class TestFallacyPenaltyOracle:
    @given(LINE_TEXTS)
    @settings(max_examples=400, deadline=None)
    def test_final_answer_span_matches_the_forward_walk(self, text):
        assert _final_answer_span(text) == reference_final_answer_span(text)

    @given(st.one_of(LINE_TEXTS, TEXTS))
    @settings(max_examples=300, deadline=None)
    def test_penalty_matches_the_raw_text_version(self, lexicons, text):
        assert fallacy_penalty(trace(text), lexicons) == reference_fallacy_penalty(trace(text), PACKAGED_GROUPS)

    @pytest.mark.parametrize(
        "text, penalty",
        [
            ("ANSWER IS b\nC", 1.0),
            ("the anſwer is c\nC", 0.0),
            ("the anſwer is d\nC", 1.0),
            ("answer is\nc", 0.0),  # a lowercase final line holds no answer letter
            ("the answer is\nc, not D", 1.0),
            ("answer is\nd is wrong\nanswer: (A)\nC", 2.0),
            ("the answer is Bx\nC", 0.0),  # a letter right after the answer letter: no assertion
            ("the answer is bſ\nC", 0.0),
            ("the answer is B\u212a\nC", 0.0),
            ("the answer is B7\nC", 1.0),
        ],
    )
    def test_folded_assertions(self, lexicons, text, penalty):
        assert fallacy_penalty(trace(text), lexicons) == penalty
        assert reference_fallacy_penalty(trace(text), PACKAGED_GROUPS) == penalty
