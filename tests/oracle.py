"""Reference implementations that tests check the program's code against.

``combicat.logic`` decides a formula's meaning by its 16-bit truth mask and
names a question's valuation by ``truth_row``. This module keeps the plain
recursive evaluator the masks replaced, over an explicit set of true
statements, and derives each row's valuation on its own, so tests can check
the fast path against standard propositional semantics.

``combicat.scoring`` counts in-order marker chains of any length with one
stage matcher; the two-stage and three-stage matchers it replaced are kept
here. It finds lexicon markers through one index of each trace's word runs,
and scans a marker only where the index cannot rule it out. The scan of every
marker over the whole text that the index replaced is kept here, and so are
the per-marker regexes that scan replaced, with a scorer that matches every
marker through them.

``combicat.irt`` steps a CAT session through ``select_next``, which its
caller loops on. The self-contained loop that drove a session before is kept
here: a linear scan for the most informative item, the stop rule checked
before each pick, and the skip of an item whose response failed. A run's
``dual`` block is derived from its logged steps by ``harness.log_dual``; the
accuracy a live session gave of its own responses is kept here as
``reference_accuracy``.

``combicat.scoring.fallacy_penalty`` reads the index that ``extract_metrics``
built, searches its fold with a lowercase assertion pattern and finds the
final answer line from the end. The version that searched the raw text under
``re.IGNORECASE``, matched the contradiction markers by their regexes and
walked every line from the start is kept here.

A formula node carries its mask and prefix text, derived from its children
when it is built, and option texts come from a per-locale table filled once.
``verify`` as it stood before, walking each option's tree and filling its
template per call, is kept here over a mask derived from the reference
evaluator. ``combicat.bankio`` lays out a bank file by hand around the C
string encoder; the ``json.dump(..., indent=2)`` writer it replaced is kept
here too.

``combicat.synthesis.pools`` filters the one table of option shapes,
``logic.SHAPE_LIST``, by their truth in the answer's row, and a shape lists
the requirement kinds it presents. The hand enumeration of each pool that the
filter replaced is kept here as ``reference_pools``, with formulas built node
by node, and so is the requirement test ``reference_satisfies``.

``combicat.synthesis.assemble`` reads each pool entry's requirement flags,
computed once per pool, draws a correct option's index directly and shares
one option entry per (letter, formula, language). ``assemble`` as it stood
before, scanning the reference pools with ``reference_satisfies``, drawing
through ``weighted_index`` over equal weights and building and rendering
every option, is kept here, as is the ``CombinatorialQuestion.from_record``
that built a fresh entry for every option it loaded.

``combicat.bankio.read_jsonl`` reads a file's bytes and decodes each line, so
that a line that is not UTF-8 names its line. The text-mode reader it
replaced, whose line ends it keeps, is kept here as ``reference_read_jsonl``.
"""

import json
import math
import re
from importlib import resources
from itertools import combinations

from combicat.irt import (
    BASE_SUBSET,
    DEFAULT_MAX_ITEMS,
    DEFAULT_SE_TARGET,
    CatSession,
    eap_update,
    fisher_information,
)
from combicat.logic import (
    SHAPES,
    STATEMENTS,
    And,
    Not,
    Or,
    PatternKind,
    Var,
    parse_formula,
    render,
    templates,
)
from combicat.rng import PortableRng
from combicat.scoring import (
    _FINAL_LETTERS_RE,
    _NUMBERED_STEP_RE,
    _SEGMENT_SPLIT_RE,
    METRIC_NAMES,
    ThinkingTrace,
    _ordered_chains,
    shannon_entropy,
)
from combicat.synthesis import (
    _REQUIREMENT_ORDER,
    OPTION_LETTERS,
    CombinatorialQuestion,
    InfeasibleTierError,
    OptionEntry,
    Violation,
    _known_keys,
    string_list,
    tier_config,
    typed,
)


def reference_evaluate(formula, true_statements) -> bool:
    """Standard propositional semantics by direct recursion over the tree."""
    if isinstance(formula, Var):
        return formula.index in true_statements
    if isinstance(formula, Not):
        return not reference_evaluate(formula.child, true_statements)
    if isinstance(formula, And):
        return reference_evaluate(formula.left, true_statements) and reference_evaluate(formula.right, true_statements)
    if isinstance(formula, Or):
        return reference_evaluate(formula.left, true_statements) or reference_evaluate(formula.right, true_statements)
    raise TypeError(f"not a formula node: {formula!r}")


def row_statements(row: int) -> frozenset:
    """Statements true in row ``row`` of the 16-row table, lexicographic in (I, II, III, IV)."""
    if not 0 <= row < 16:
        raise ValueError(f"row index {row} out of range")
    bits = format(row, "04b")  # the first digit is statement I
    return frozenset(s for s, bit in zip(STATEMENTS, bits) if bit == "1")


def reference_table(formula) -> tuple[bool, ...]:
    """Values over all 16 rows, in row order."""
    return tuple(reference_evaluate(formula, row_statements(row)) for row in range(16))


def reference_ordered_pairs(first: list[int], second: list[int]) -> int:
    """Non-overlapping (first, later second) pairs, scanned left to right."""
    count = 0
    pending = 0
    events = sorted([(pos, 0) for pos in first] + [(pos, 1) for pos in second])
    for _, kind in events:
        if kind == 0:
            pending += 1
        elif pending > 0:
            pending -= 1
            count += 1
    return count


def reference_ordered_triples(first: list[int], second: list[int], third: list[int]) -> int:
    """Non-overlapping in-order triples, greedy left-to-right matching."""
    count = 0
    stage_one = 0
    stage_two = 0
    events = sorted([(p, 0) for p in first] + [(p, 1) for p in second] + [(p, 2) for p in third])
    for _, kind in events:
        if kind == 0:
            stage_one += 1
        elif kind == 1 and stage_one > 0:
            stage_one -= 1
            stage_two += 1
        elif kind == 2 and stage_two > 0:
            stage_two -= 1
            count += 1
    return count


def reference_marker_pattern(marker: str) -> re.Pattern:
    """ASCII word phrases match caselessly between ``\\b`` boundaries; anything else
    (CJK, punctuation) matches as a plain, case-sensitive substring."""
    escaped = re.escape(marker)
    if re.fullmatch(r"[a-z0-9' ,-]+", marker, re.IGNORECASE):
        return re.compile(rf"\b{escaped}\b", re.IGNORECASE)
    return re.compile(escaped)


def reference_count(markers, text: str) -> int:
    """Non-overlapping hits of all ``markers``, one ``findall`` pass per marker."""
    return sum(len(reference_marker_pattern(m).findall(text)) for m in markers)


def reference_positions(markers, text: str) -> list[int]:
    """Sorted start positions of the hits of all ``markers``."""
    return sorted(hit.start() for m in markers for hit in reference_marker_pattern(m).finditer(text))


def reference_scan_count(markers, text: str, folded: str) -> int:
    """Non-overlapping hits of all ``markers``, each scanned over the whole text."""
    return sum(len(m.starts(text, folded)) for m in markers)


def reference_scan_positions(markers, text: str, folded: str) -> list[int]:
    """Sorted start positions of the hits of all ``markers``, each scanned over the whole text."""
    return sorted(at for m in markers for at in m.starts(text, folded))


def reference_lexicon_groups(locale: str = "both") -> dict[str, list[str]]:
    """The packaged markers per metric group ("reversal", "epistemic.certain",
    "abstraction.2"), merged over the locales in order."""
    groups: dict[str, list[str]] = {}
    for name in ("en", "zh") if locale == "both" else (locale,):
        raw = json.loads(resources.files("combicat.data").joinpath(f"lexicon_{name}.json").read_text("utf-8"))
        for key, value in raw.items():
            for sub, markers in value.items() if isinstance(value, dict) else [(None, value)]:
                groups.setdefault(key if sub is None else f"{key}.{sub}", []).extend(markers)
    return groups


def reference_final_answer_span(text: str) -> tuple[set[str], int]:
    """Letters on the last non-empty line and that line's offset, every line walked from the start."""
    last_letters: set[str] = set()
    last_start = len(text)
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip().strip("*_`\"'").strip()
        if stripped:
            last_letters = {m.group(1).upper() for m in _FINAL_LETTERS_RE.finditer(stripped)}
            last_start = offset
        offset += len(line)
    return last_letters, last_start


_REFERENCE_ASSERTION_RE = re.compile(
    r"(?:final answer|the answer|answer)\s*(?:is|:|should be|must be)\s*\(?([A-Ha-h])\)?(?![A-Za-z])",
    re.IGNORECASE,
)


def reference_fallacy_penalty(trace: ThinkingTrace, groups: dict[str, list[str]]) -> float:
    """``fallacy_penalty`` over the raw text: a caseless assertion pattern, the contradiction
    markers' regexes and the forward line walk."""
    final_letters, final_start = reference_final_answer_span(trace.text)
    mismatches = 0
    if final_letters:
        for match in _REFERENCE_ASSERTION_RE.finditer(trace.text):
            if match.start() >= final_start:
                continue
            if match.group(1).upper() not in final_letters:
                mismatches += 1
    return float(mismatches + reference_count(groups.get("contradiction", []), trace.text))


def _subgroups(groups: dict[str, list[str]], key: str) -> dict[str, list[str]]:
    return {name.split(".", 1)[1]: markers for name, markers in groups.items() if name.startswith(key + ".")}


def reference_scores(trace: ThinkingTrace, groups: dict[str, list[str]]) -> tuple[dict[str, float], float]:
    """``extract_metrics`` and ``fallacy_penalty`` with every marker matched by its reference regex."""
    text = trace.text
    penalty = reference_fallacy_penalty(trace, groups)
    if not text.strip():
        return {**dict.fromkeys(METRIC_NAMES, 0.0), "token_count": float(trace.token_count)}, penalty

    def count_of(markers: list[str]) -> int:
        return reference_count(markers, text)

    def count(key: str) -> int:
        return count_of(groups.get(key, []))

    def positions(key: str) -> list[int]:
        return reference_positions(groups.get(key, []), text)

    levels = _subgroups(groups, "abstraction")
    metrics = dict(
        oscillation=count("reversal"),
        logic_density=100.0 * count("connectives") / max(1, trace.token_count),
        abductive_depth=_ordered_chains(positions("hypothesis"), positions("elimination")),
        dialectic_tension=_ordered_chains(positions("thesis"), positions("antithesis"), positions("synthesis")),
        dimensional_awareness=count("premise_layer"),
        chain_steps=count("deduction_step") + len(_NUMBERED_STEP_RE.findall(text)),
        uncertainty_entropy=shannon_entropy(count_of(markers) for markers in _subgroups(groups, "epistemic").values()),
        pivot_count=count("pivot"),
        abstraction_level=max([0] + [int(level) for level, markers in levels.items() if count_of(markers)]),
        token_count=trace.token_count,
        segment_count=len([block for block in _SEGMENT_SPLIT_RE.split(text) if block.strip()]),
    )
    return {name: float(metrics[name]) for name in METRIC_NAMES}, penalty


def _reference_eligible(session, bank) -> list:
    used = session.administered_ids() | session.skipped
    return [item for item in bank if item.subset == session.subset and item.item_id not in used]


def reference_select_next(session, bank) -> str:
    """The unused item of the session's subset with maximal information; ties to the smallest id."""
    theta = session.estimate.theta_hat
    best_id = None
    best_info = -math.inf
    for item in _reference_eligible(session, bank):
        info = fisher_information(theta, item)
        if info > best_info or (info == best_info and (best_id is None or item.item_id < best_id)):
            best_id = item.item_id
            best_info = info
    if best_id is None:
        raise LookupError(f"bank exhausted for subset {session.subset!r}")
    return best_id


def reference_should_terminate(session, max_items, se_target, bank) -> bool:
    """Stop once precise enough, out of budget (administered plus skipped), or out of items."""
    if session.estimate.se < se_target:
        return True
    if len(session.administered) + len(session.skipped) >= max_items:
        return True
    return not _reference_eligible(session, bank)


def reference_cat_session(
    bank, respond, subset=BASE_SUBSET, max_items=DEFAULT_MAX_ITEMS, se_target=DEFAULT_SE_TARGET
) -> tuple[CatSession, list[dict]]:
    """One whole session and its steps, each as a ``cat_step`` log row holds it.

    ``respond(item)`` gives True or False for a scored response and None for a
    failed one, whose item is skipped; a skip still counts toward
    ``max_items``.
    """
    session = CatSession.start(subset)
    items_by_id = {item.item_id: item for item in bank}
    steps: list[dict] = []
    while not reference_should_terminate(session, max_items, se_target, bank):
        item_id = reference_select_next(session, bank)
        outcome = respond(items_by_id[item_id])
        step = {"step": len(steps), "item_id": item_id}
        if outcome is None:
            session.skipped.add(item_id)
            step["skipped"] = True
        else:
            eap_update(session, items_by_id[item_id], bool(outcome))
            step.update(theta_hat=session.estimate.theta_hat, se=session.estimate.se, response=bool(outcome))
        steps.append(step)
    return session, steps


def reference_accuracy(session) -> float:
    """The share of a session's scored responses that were correct; 0 for a session that scored none."""
    if not session.administered:
        return 0.0
    return sum(1 for _, correct in session.administered if correct) / len(session.administered)


def reference_mask(formula) -> int:
    """The 16-bit truth mask, bit ``r`` set where the reference evaluator holds in row ``r``."""
    return sum(1 << row for row, value in enumerate(reference_table(formula)) if value)


def reference_render(formula, locale: str = "en") -> str:
    """The template of the formula's shape, filled in per call; a formula of no shape has none (``KeyError``)."""
    tables = templates()
    if locale not in tables:
        raise ValueError(f"unknown locale {locale!r}")
    table = tables[locale]
    shape = SHAPES[reference_mask(formula)]
    text = table[shape.kind.value]
    for placeholder, statement in zip(("{i}", "{j}"), shape.statements):
        text = text.replace(placeholder, statement.name)
    return text


def reference_shape(kind, *statements):
    """``(kind, statements, formula)`` of one option shape, its statements put in ascending order."""
    statements = tuple(sorted(statements))
    if kind is PatternKind.EXACTNESS:
        (first,) = statements
        node = Var(first)
        for other in STATEMENTS:
            if other != first:
                node = And(node, Not(Var(other)))
    elif kind is PatternKind.DISJUNCTION:
        node = Or(Var(statements[0]), Var(statements[1]))
    elif kind is PatternKind.NEGATION:
        node = Not(Var(statements[0]))
    elif kind is PatternKind.COMPOUND_NEGATION:
        node = And(Not(Var(statements[0])), Not(Var(statements[1])))
    else:
        assert kind is PatternKind.UNIVERSAL_NONE and not statements
        node = Not(Var(STATEMENTS[0]))
        for other in STATEMENTS[1:]:
            node = And(node, Not(Var(other)))
    return kind, statements, node


def reference_pools(allowed, answer):
    """The (valid, distractor) pools of ``reference_shape`` entries, enumerated by hand in the documented order."""
    kinds = PatternKind
    others = [s for s in STATEMENTS if s != answer]
    valid = [reference_shape(kinds.EXACTNESS, answer)]
    if kinds.DISJUNCTION in allowed:
        valid += [reference_shape(kinds.DISJUNCTION, answer, j) for j in others]
    if kinds.NEGATION in allowed:
        valid += [reference_shape(kinds.NEGATION, j) for j in others]
    if kinds.COMPOUND_NEGATION in allowed:
        valid += [reference_shape(kinds.COMPOUND_NEGATION, j, k) for j, k in combinations(others, 2)]

    distractor = [reference_shape(kinds.EXACTNESS, j) for j in others]
    if kinds.DISJUNCTION in allowed:
        distractor += [reference_shape(kinds.DISJUNCTION, j, k) for j, k in combinations(others, 2)]
    if kinds.NEGATION in allowed:
        distractor.append(reference_shape(kinds.NEGATION, answer))
    if kinds.COMPOUND_NEGATION in allowed:
        distractor.append(reference_shape(kinds.COMPOUND_NEGATION, answer, others[0]))
    distractor.append(reference_shape(kinds.UNIVERSAL_NONE))
    return valid, distractor


def reference_satisfies(kind, requirement) -> bool:
    """Whether an option of shape ``kind`` (None for a formula of no shape) meets a tier's ``requirement``."""
    # Compound negations are negations for requirement purposes; the universal
    # distractor and a formula of no shape satisfy nothing.
    if kind is None or kind is PatternKind.UNIVERSAL_NONE:
        return False
    if requirement is PatternKind.NEGATION:
        return kind in (PatternKind.NEGATION, PatternKind.COMPOUND_NEGATION)
    return kind == requirement


def reference_verify(question) -> tuple:
    """``synthesis.verify`` with each option's mask and text derived per call."""
    cfg = tier_config(question.tier)
    row = question.truth_row()
    letters = question.letters()
    violations = []

    def flag(letter: str, rule: str, message: str) -> None:
        violations.append(Violation(letter, rule, message))

    templated = question.language in templates()
    if not templated:
        flag("", "unknown-language", f"no option templates for language {question.language!r}")
    if letters != tuple(OPTION_LETTERS[: len(letters)]):
        flag("", "letter-order", f"option letters {','.join(letters)} do not run A, B, C... in order")

    kinds = []
    seen: dict[int, str] = {}
    for entry in question.options:
        truth_mask = reference_mask(entry.formula)
        shape = SHAPES.get(truth_mask)
        kinds.append(None if shape is None else shape.kind)
        if shape is None:
            formula = entry.formula.serialized
            flag(entry.letter, "unknown-shape", f"option {entry.letter} formula {formula} is none of the 21 option shapes")
        value = bool(truth_mask >> row & 1)
        labelled = "correct" if entry.letter in question.answer_set else "incorrect"
        if value != (labelled == "correct"):
            flag(entry.letter, "truth-mismatch", f"option {entry.letter} evaluates {value} but is labelled {labelled}")
        if templated and shape is not None:
            expected_text = reference_render(entry.formula, question.language)
            if entry.text != expected_text:
                flag(entry.letter, "text-mismatch", f"option {entry.letter} reads {entry.text!r}, not {expected_text!r}")
        if truth_mask in seen:
            flag(
                entry.letter,
                "duplicate-formula",
                f"options {seen[truth_mask]} and {entry.letter} share truth table {truth_mask:#06x}",
            )
        seen.setdefault(truth_mask, entry.letter)

    for letter in sorted(question.answer_set - set(letters)):
        flag(letter, "unknown-letter", f"answer letter {letter!r} names no option")

    for requirement in sorted(cfg.required_patterns, key=lambda k: k.value):
        if not any(reference_satisfies(kind, requirement) for kind in kinds):
            flag("", "missing-required-pattern", f"no option presents {requirement.value}")

    n_answers = len(question.answer_set)
    if not 1 <= n_answers < len(question.options):
        flag("", "degenerate-answer-set", f"answer set size {n_answers} of {len(question.options)} options")
    if not cfg.n_correct_min <= n_answers <= cfg.n_correct_max:
        flag("", "answer-count", f"{n_answers} answers outside the {cfg.tier} range {cfg.n_correct_min}-{cfg.n_correct_max}")

    return tuple(violations)


def reference_save(path: str, key: str, records: list) -> None:
    """A versioned bank file through ``json.dump(..., ensure_ascii=False, indent=2)``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, key: records}, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def reference_assemble(question, cfg, seed) -> CombinatorialQuestion:
    """``synthesis.assemble`` with per-question pool scans, ``weighted_index`` draws and fresh option entries."""
    statements = tuple(question.option_list())
    answer = question.answer_index()
    rng = PortableRng(seed)

    valid_pool, distractor_pool = reference_pools(cfg.allowed_patterns, answer)

    n_correct = rng.randint(cfg.n_correct_min, cfg.n_correct_max)
    n_distract = cfg.n_options - n_correct
    if n_correct > len(valid_pool) or n_distract > len(distractor_pool):
        raise InfeasibleTierError(
            f"tier infeasible for this configuration: need {n_correct} valid and "
            f"{n_distract} distractor options, pools hold "
            f"{len(valid_pool)}/{len(distractor_pool)}"
        )

    correct_picks = []
    distract_picks = []

    def take_correct(pool, indices):
        chosen = indices[rng.weighted_index([1.0] * len(indices))]
        return pool.pop(chosen)

    def take_distractor(pool, indices):
        chosen = indices[rng.below(len(indices))]
        return pool.pop(chosen)

    for requirement in _REQUIREMENT_ORDER:
        if requirement not in cfg.required_patterns:
            continue
        if any(reference_satisfies(kind, requirement) for kind, _, _ in correct_picks + distract_picks):
            continue
        valid_candidates = [i for i, (kind, _, _) in enumerate(valid_pool) if reference_satisfies(kind, requirement)]
        if len(correct_picks) < n_correct and valid_candidates:
            correct_picks.append(take_correct(valid_pool, valid_candidates))
            continue
        distractor_candidates = [
            i for i, (kind, _, _) in enumerate(distractor_pool) if reference_satisfies(kind, requirement)
        ]
        if len(distract_picks) < n_distract and distractor_candidates:
            distract_picks.append(take_distractor(distractor_pool, distractor_candidates))
            continue
        raise InfeasibleTierError(
            f"tier infeasible for this configuration: cannot place required pattern "
            f"{requirement.value}"
        )

    while len(correct_picks) < n_correct:
        correct_picks.append(take_correct(valid_pool, list(range(len(valid_pool)))))
    while len(distract_picks) < n_distract:
        distract_picks.append(take_distractor(distractor_pool, list(range(len(distractor_pool)))))

    labelled = [(entry, True) for entry in correct_picks]
    labelled += [(entry, False) for entry in distract_picks]
    rng.shuffle(labelled)

    entries = []
    answer_letters = set()
    for position, ((_, _, formula), is_correct) in enumerate(labelled):
        letter = OPTION_LETTERS[position]
        entries.append(OptionEntry(letter, formula, render(formula, question.language)))
        if is_correct:
            answer_letters.add(letter)

    return CombinatorialQuestion(
        id=f"{question.id}::{cfg.tier}::{seed:016x}",
        source_id=question.id,
        context=question.context,
        statements=statements,
        options=tuple(entries),
        answer_set=frozenset(answer_letters),
        tier=cfg.tier,
        seed=seed,
        source_answer=question.answer,
        language=question.language,
        source=question.source,
        reasoning_type=question.reasoning_type,
        extras=dict(question.extras),
    )


def reference_comb_from_record(record) -> CombinatorialQuestion:
    """``CombinatorialQuestion.from_record`` with a fresh ``OptionEntry`` for every option."""
    known = _known_keys(CombinatorialQuestion)
    options = []
    for item in record["options"]:
        letter, formula, text = (typed(key, item[key], str, "a string") for key in ("letter", "formula", "text"))
        options.append(OptionEntry(letter, parse_formula(formula), text))
    return CombinatorialQuestion(
        id=typed("id", record["id"], str, "a string"),
        source_id=typed("source_id", record["source_id"], str, "a string"),
        context=typed("context", record.get("context", ""), str, "a string"),
        statements=tuple(string_list("statements", record["statements"], 4)),
        options=tuple(options),
        answer_set=frozenset(string_list("answer_set", record["answer_set"])),
        tier=typed("tier", record["tier"], str, "a string"),
        seed=typed("seed", record["seed"], int, "an integer"),
        source_answer=typed("source_answer", record["source_answer"], str, "a string"),
        language=typed("language", record.get("language", "en"), str, "a string"),
        source=typed("source", record.get("source", ""), str, "a string"),
        reasoning_type=typed("reasoning_type", record.get("reasoning_type", ""), str, "a string"),
        extras={k: v for k, v in record.items() if k not in known},
    )


def reference_read_jsonl(path: str) -> list[tuple[int, dict]]:
    """Each row of a JSONL file read as text, with its line number; blank lines are not rows."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                rows.append((number, json.loads(line)))
    return rows
