"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Each test prints its verdict and timing before asserting, so
a red run still shows the measured values.
"""

import math
import time
from statistics import fmean, median

import numpy as np
import pytest

from combicat.bankio import load_json, save_atomic_bank
from combicat.cli import main
from combicat.harness import MemorizationRespondent, build_task, parse_answer
from combicat.irt import (
    CatSession,
    ItemParams,
    eap_update,
    fisher_information,
    calibrate_difficulty,
    probability_3pl,
    select_next,
)
from combicat.logic import PatternKind, classify
from combicat.rng import PortableRng, derive_seed
from combicat.scoring import stratify
from combicat.synthesis import (
    CombinatorialQuestion,
    pools,
    synthesize_question,
    tier_config,
    verify,
)
from combicat.logic import STATEMENTS
from conftest import make_atomic_bank, make_atomic_question, make_trace_corpus, write_jsonl

TIERS = ("Easy", "Medium", "Hard", "Expert")
ANSWERS = ("I", "II", "III", "IV")


def report_line(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {verdict} - {detail}")


@pytest.fixture(scope="module")
def synthesized_ten_thousand():
    """2,500 questions per tier, answer indices cycling, with timing."""
    started = time.monotonic()
    questions: list[CombinatorialQuestion] = []
    regenerations = 0
    for tier in TIERS:
        cfg = tier_config(tier)
        for i in range(2500):
            question = make_atomic_question(i, ANSWERS[i % 4])
            combinatorial, retries = synthesize_question(
                question, cfg, derive_seed(20_24, tier, question.id)
            )
            questions.append(combinatorial)
            regenerations += retries
    elapsed = time.monotonic() - started
    return questions, regenerations, elapsed


def test_criterion_01_validity_by_construction(synthesized_ten_thousand):
    """10,000 synthesized questions across tiers and answers all verify."""
    questions, regenerations, synth_elapsed = synthesized_ten_thousand
    started = time.monotonic()
    violations = 0
    for question in questions:
        violations += len(verify(question))
    elapsed = synth_elapsed + (time.monotonic() - started)
    ok = violations == 0 and len(questions) == 10_000 and elapsed < 30.0
    report_line(
        1,
        ok,
        f"10,000 questions, {violations} violations, {regenerations} regenerations, "
        f"{elapsed:.1f}s (< 30s)",
    )
    assert violations == 0
    assert len(questions) == 10_000
    assert elapsed < 30.0


def test_criterion_02_tier_operator_constraints(synthesized_ten_thousand):
    """Every Hard item shows a negation; every Expert item adds a disjunction."""
    questions, _, _ = synthesized_ten_thousand
    failures = 0
    for question in questions:
        kinds = set()
        for entry in question.options:
            found = classify(entry.formula)
            if found is not None:
                kinds.add(found.kind)
        has_negation = kinds & {PatternKind.NEGATION, PatternKind.COMPOUND_NEGATION}
        if question.tier == "Hard" and not has_negation:
            failures += 1
        if question.tier == "Expert" and not (has_negation and PatternKind.DISJUNCTION in kinds):
            failures += 1
    ok = failures == 0
    report_line(2, ok, f"operator constraints on Hard/Expert, {failures} exceptions")
    assert failures == 0


def test_criterion_03_contamination_bound(synthesized_ten_thousand):
    """A memorizer picking one option uniformly hits at the answer-share rate."""
    questions, _, _ = synthesized_ten_thousand
    sample = questions[::5]  # 2,000 questions across all tiers
    tasks = [build_task(q) for q in sample]
    respondent = MemorizationRespondent(seed=derive_seed(9, "memorization"))
    trials = 100_000
    hits = 0
    for t in range(trials):
        task = tasks[t % len(tasks)]
        reply = respondent.respond(task)
        picked = parse_answer(reply.raw_text, task.valid_letters)
        hits += 1 if picked & task.gold_set else 0
    rate = hits / trials
    expected = fmean(len(t.gold_set) / len(t.valid_letters) for t in tasks)
    ok = abs(rate - expected) <= 0.02
    report_line(
        3, ok, f"pick rate {rate:.4f} vs answer share {expected:.4f} over {trials} trials (+/-0.02)"
    )
    assert abs(rate - expected) <= 0.02


def test_criterion_04_pool_size_enumeration():
    """Pool sizes match the hand-derived per-tier table for every answer."""
    expected = {"Easy": (1, 4), "Medium": (4, 7), "Hard": (7, 8), "Expert": (10, 9)}
    mismatches = []
    for tier, (want_valid, want_distractor) in expected.items():
        cfg = tier_config(tier)
        for answer in STATEMENTS:
            sizes = tuple(len(pool) for pool in pools(cfg.allowed_patterns, answer))
            if sizes != (want_valid, want_distractor):
                mismatches.append((tier, answer.name, sizes))
    ok = not mismatches
    report_line(4, ok, f"valid/distractor pool table exact, mismatches: {mismatches or 'none'}")
    assert not mismatches


def test_criterion_05_3pl_fixtures():
    """Probability and information fixtures plus a monotonicity sweep."""
    p_fixture = probability_3pl(1.3, ItemParams("x", a=1.7, b=1.3, c=0.25))
    fisher_fixture = fisher_information(0.4, ItemParams("y", a=0.8, b=0.4, c=1.0 / 6.0))
    rng = PortableRng(55)
    monotone_failures = 0
    for i in range(1000):
        item = ItemParams(
            f"m{i}", a=0.3 + 2.2 * rng.random(), b=-3.0 + 6.0 * rng.random(), c=0.3 * rng.random()
        )
        previous = -1.0
        for k in range(25):
            p = probability_3pl(-5.0 + 0.4 * k, item)
            if p <= previous:
                monotone_failures += 1
                break
            previous = p
    ok = (
        abs(p_fixture - 0.625) <= 1e-12
        and abs(fisher_fixture - 0.15556) <= 1e-5
        and monotone_failures == 0
    )
    report_line(
        5,
        ok,
        f"P(theta=b, c=1/4)={p_fixture:.12f}, info fixture={fisher_fixture:.6f}, "
        f"monotonicity failures {monotone_failures}/1000",
    )
    assert abs(p_fixture - 0.625) <= 1e-12
    assert abs(fisher_fixture - 0.15556) <= 1e-5
    assert monotone_failures == 0


def test_criterion_06_eap_grid_fidelity():
    """61-node EAP tracks a 4001-node dense oracle on 1,000 random paths."""
    started = time.monotonic()
    nodes = np.linspace(-6.0, 6.0, 4001)
    prior = np.exp(-0.5 * nodes**2)
    prior /= prior.sum()
    rng = PortableRng(606)
    worst_theta = 0.0
    worst_se = 0.0
    for run in range(1000):
        n_items = 1 + rng.below(60)
        session = CatSession.start()
        weights = prior.copy()
        for i in range(n_items):
            item = ItemParams(
                f"g{run}-{i}",
                a=0.5 + 2.0 * rng.random(),
                b=-3.0 + 6.0 * rng.random(),
                c=0.25 * rng.random(),
            )
            correct = rng.below(2) == 0
            eap_update(session, item, correct)
            p = item.c + (1.0 - item.c) / (1.0 + np.exp(-item.a * (nodes - item.b)))
            weights = weights * (p if correct else 1.0 - p)
            weights /= weights.sum()
        dense_theta = float(np.sum(nodes * weights))
        dense_se = float(np.sqrt(np.sum(weights * (nodes - dense_theta) ** 2)))
        worst_theta = max(worst_theta, abs(session.estimate.theta_hat - dense_theta))
        worst_se = max(worst_se, abs(session.estimate.se - dense_se))
    elapsed = time.monotonic() - started
    ok = worst_theta < 5e-3 and worst_se < 5e-3 and elapsed < 60.0
    report_line(
        6,
        ok,
        f"max |d_theta|={worst_theta:.2e}, max |d_se|={worst_se:.2e} over 1,000 paths, "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert worst_theta < 5e-3
    assert worst_se < 5e-3
    assert elapsed < 60.0


def _recovery_bank(seed: int, n: int = 200) -> list[ItemParams]:
    # Adaptive runs use the two hardest tiers, mirroring the hardened
    # evaluation setting; difficulties cover [-3, 3] uniformly.
    rng = PortableRng(seed)
    discriminations = (1.6, 2.0)
    return [
        ItemParams(f"i{i:03d}", a=discriminations[i % 2], b=-3.0 + 6.0 * rng.random(), c=1.0 / 6.0)
        for i in range(n)
    ]


def test_criterion_07_ability_recovery():
    """Simulated respondents are recovered within their posterior uncertainty."""
    started = time.monotonic()
    covered = 0
    errors = []
    items_at_zero = []
    total = 0
    for theta_star in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for s in range(500):
            seed = derive_seed(1234, f"recovery:{theta_star}:{s}")
            bank = _recovery_bank(seed)
            draw = PortableRng(derive_seed(seed, "responses"))
            session = CatSession.start()
            while (item := select_next(session, bank)) is not None:
                eap_update(session, item, draw.random() < probability_3pl(theta_star, item))
            estimate = session.estimate
            error = abs(estimate.theta_hat - theta_star)
            errors.append(error)
            covered += error <= 2.0 * estimate.se
            total += 1
            if theta_star == 0.0:
                items_at_zero.append(estimate.n_administered)
    elapsed = time.monotonic() - started
    coverage = covered / total
    mae = fmean(errors)
    median_items = median(items_at_zero)
    ok = coverage >= 0.90 and mae <= 0.35 and 10 <= median_items <= 30 and elapsed < 300.0
    report_line(
        7,
        ok,
        f"coverage {coverage:.3f} (>=0.90), MAE {mae:.3f} (<=0.35), "
        f"median items at theta*=0: {median_items} (in [10, 30]), {elapsed:.1f}s (< 5min)",
    )
    assert coverage >= 0.90
    assert mae <= 0.35
    assert 10 <= median_items <= 30
    assert elapsed < 300.0


def test_criterion_08_cat_efficiency():
    """Information-driven selection never needs more items than random picks."""
    started = time.monotonic()

    def items_until_precise(bank, respond, pick):
        session = CatSession.start(max_items=len(bank), se_target=0.3)
        while (item := pick(session, bank)) is not None:
            eap_update(session, item, respond(item))
        return len(session.administered)

    wins = 0
    pairs = 500
    for pair in range(pairs):
        seed = derive_seed(777, f"pair:{pair}")
        bank = _recovery_bank(seed)
        theta_star = -2.0 + 4.0 * PortableRng(derive_seed(seed, "theta")).random()

        def make_respond(stream_seed):
            draw = PortableRng(stream_seed)
            return lambda item: draw.random() < probability_3pl(theta_star, item)

        greedy_n = items_until_precise(bank, make_respond(derive_seed(seed, "responses")), select_next)
        selector_rng = PortableRng(derive_seed(seed, "selector"))

        def random_pick(session, items):
            if session.estimate.se < session.se_target or len(session.administered) == len(items):
                return None
            used = session.administered_ids()
            eligible = [item for item in items if item.item_id not in used]
            return eligible[selector_rng.below(len(eligible))]

        random_n = items_until_precise(bank, make_respond(derive_seed(seed, "responses")), random_pick)
        wins += greedy_n <= random_n
    elapsed = time.monotonic() - started
    rate = wins / pairs
    ok = rate >= 0.95
    report_line(8, ok, f"selection wins or ties {wins}/{pairs} matched pairs ({rate:.3f} >= 0.95), {elapsed:.1f}s")
    assert rate >= 0.95


def test_criterion_09_difficulty_calibration():
    """Calibration matches an independently coded formula and the fixed points."""
    fixtures = [
        ((25.0, 2.0, 1000.0, 100.0), -1.04037),
        ((72.0, 2.0, 1.0, 100.0), -3.17),
        ((34.8, 3.0, 10000.0, 300.0), 1.24111),
    ]
    fixture_ok = all(
        abs(calibrate_difficulty(*inputs) - expected) <= 1e-5 for inputs, expected in fixtures
    )
    rng = PortableRng(31)
    worst = 0.0
    for _ in range(100):
        s_gold = 10.0 + 30.0 * rng.random()
        density = 6.0 * rng.random()
        tokens = float(rng.below(50_000))
        segments = float(rng.below(400))
        # independent re-derivation, term by term
        expected = (s_gold - 72.0) / 54.0
        expected += (density - 2.0) / 10.0
        expected += math.log(max(1.0, tokens), 10)
        expected -= 3.17
        expected += (segments - 100.0) / 200.0
        worst = max(worst, abs(calibrate_difficulty(s_gold, density, tokens, segments) - expected))
    ok = fixture_ok and worst <= 1e-9
    report_line(9, ok, f"three fixtures within 1e-5, max oracle gap {worst:.2e} (<= 1e-9)")
    assert fixture_ok
    assert worst <= 1e-9


def test_criterion_10_scoring_fixtures():
    """Replayed grading vectors reproduce the published exact/F1 quadruple."""
    cases = [
        ({"B", "D"}, "analysis...\nB, D", True, 1.00),
        ({"A", "B", "E", "F"}, "analysis...\nA, E, F", False, 0.857),
        ({"B", "D", "E"}, "analysis...\n**B**", False, 0.50),
        ({"E"}, "analysis...\nE", True, 1.00),
    ]
    results = []
    for gold, raw, _, _ in cases:
        predicted = parse_answer(raw, "ABCDEF")
        exact = predicted == gold
        f1 = 0.0 if not predicted else 2.0 * len(predicted & gold) / (len(predicted) + len(gold))
        results.append((exact, round(f1, 3)))
    wanted = [(e, round(f, 3)) for _, _, e, f in cases]
    ok = results == wanted
    report_line(10, ok, f"exact/F1 vector {results} == {wanted}")
    assert results == wanted


def test_criterion_11_stratification_boundaries():
    """Tier cutoffs sit exactly at 20, 25, and 30."""
    boundary = [
        (19.99, "Easy"),
        (20.0, "Medium"),
        (25.0, "Hard"),
        (30.0, "Expert"),
    ]
    got = [(value, stratify(value)) for value, _ in boundary]
    ok = got == [(v, t) for v, t in boundary]
    report_line(11, ok, f"{got}")
    assert got == [(v, t) for v, t in boundary]


def test_criterion_12_end_to_end_offline_run(tmp_path, capsys):
    """Full offline pipeline recovers the simulated ability gap."""
    started = time.monotonic()
    questions = make_atomic_bank(120, seed=77)
    atomic = tmp_path / "atomic.json"
    save_atomic_bank(str(atomic), questions)
    comb = tmp_path / "comb.json"
    assert main(
        [
            "synthesize", "--bank", str(atomic), "--out", str(comb),
            "--tier-split", "Medium:40,Hard:40,Expert:20", "--seed", "21",
        ]
    ) == 0
    traces = tmp_path / "traces.jsonl"
    write_jsonl(traces, make_trace_corpus(questions, seed=5))
    scores = tmp_path / "scores.jsonl"
    assert main(["score-traces", "--traces", str(traces), "--out", str(scores)]) == 0
    base_items = tmp_path / "base_items.json"
    comb_items = tmp_path / "comb_items.json"
    assert main(["calibrate", "--bank", str(atomic), "--scores", str(scores), "--out", str(base_items)]) == 0
    assert main(["calibrate", "--bank", str(comb), "--scores", str(scores), "--out", str(comb_items)]) == 0
    out_dir = tmp_path / "run"
    assert main(
        [
            "evaluate",
            "--base-bank", str(atomic), "--comb-bank", str(comb),
            "--base-items", str(base_items), "--comb-items", str(comb_items),
            "--mode", "cat", "--simulator", "3pl:0.5,-1.5", "--seed", "29",
            "--out", str(out_dir),
        ]
    ) == 0
    replay_code = main(
        ["report", "--log", str(out_dir / "run.jsonl"), "--report", str(out_dir / "report.json")]
    )
    replay_output = capsys.readouterr().out
    report = load_json(str(out_dir / "report.json"))
    dual = report["dual"]
    combined_se = math.hypot(dual["base"]["se"], dual["comb"]["se"])
    gap_error = abs(dual["delta_theta"] - 2.0)
    elapsed = time.monotonic() - started
    ok = (
        replay_code == 0
        and "replay check: ok" in replay_output
        and gap_error <= 2.0 * combined_se
        and elapsed < 120.0
    )
    report_line(
        12,
        ok,
        f"delta_theta {dual['delta_theta']:+.3f} vs true 2.0 (gap {gap_error:.3f} <= "
        f"{2 * combined_se:.3f}), replay ok, {elapsed:.1f}s (< 2min)",
    )
    assert replay_code == 0
    assert "replay check: ok" in replay_output
    assert gap_error <= 2.0 * combined_se
    assert elapsed < 120.0
