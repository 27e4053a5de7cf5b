"""Response model, information, EAP updates, selection, stopping, and sessions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from combicat.irt import (
    AbilityEstimate,
    CalibrationInputError,
    CatSession,
    DualReport,
    DuplicateAdministrationError,
    GRID_NODES,
    PRIOR_WEIGHTS,
    ItemParams,
    calibrate_difficulty,
    eap_update,
    fisher_information,
    guessing_for_options,
    check_dual_banks,
    probability_3pl,
    select_next,
)
from combicat.rng import PortableRng
from oracle import reference_accuracy


def dense_eap_oracle(items, responses, n_nodes=4001, span=6.0):
    """Independent EAP: dense numpy grid, direct likelihood products."""
    nodes = np.linspace(-span, span, n_nodes)
    weights = np.exp(-0.5 * nodes**2)
    weights /= weights.sum()
    for item, correct in zip(items, responses):
        p = item.c + (1.0 - item.c) / (1.0 + np.exp(-item.a * (nodes - item.b)))
        weights = weights * (p if correct else 1.0 - p)
        weights /= weights.sum()
    theta = float(np.sum(nodes * weights))
    se = float(np.sqrt(np.sum(weights * (nodes - theta) ** 2)))
    return theta, se


def random_item(rng: PortableRng, item_id: str, subset: str = "Base") -> ItemParams:
    tiers = (0.8, 1.2, 1.6, 2.0)
    return ItemParams(
        item_id=item_id,
        a=tiers[rng.below(4)],
        b=-3.0 + 6.0 * rng.random(),
        c=1.0 / 6.0,
        subset=subset,
    )


class TestGrid:
    def test_standard_grid_shape(self):
        assert len(GRID_NODES) == len(PRIOR_WEIGHTS) == 61
        assert GRID_NODES[30] == 0.0  # node 31, 1-based
        assert GRID_NODES[0] == -6.0
        assert GRID_NODES[-1] == 6.0

    def test_nodes_are_multiples_of_the_spacing(self):
        for i, node in enumerate(GRID_NODES):
            assert node == (i - 30) * 0.2

    def test_weights_sum_to_one(self):
        assert abs(math.fsum(PRIOR_WEIGHTS) - 1.0) <= 1e-12

    def test_weights_symmetric(self):
        for i in range(61):
            assert PRIOR_WEIGHTS[i] == PRIOR_WEIGHTS[60 - i]


class TestProbability:
    def test_midpoint_with_quarter_guessing(self):
        item = ItemParams("x", a=1.3, b=0.7, c=0.25)
        assert probability_3pl(0.7, item) == pytest.approx(0.625, abs=1e-12)

    def test_plain_logistic_midpoint(self):
        item = ItemParams("x", a=1.0, b=0.0, c=0.0)
        assert probability_3pl(0.0, item) == pytest.approx(0.5, abs=1e-12)

    def test_sixth_guessing_midpoint(self):
        item = ItemParams("x", a=2.0, b=-1.0, c=1.0 / 6.0)
        assert probability_3pl(-1.0, item) == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_monotone_and_bounded_for_random_items(self):
        rng = PortableRng(99)
        for i in range(1000):
            item = random_item(rng, f"i{i}")
            previous = -1.0
            for theta in [-8 + 0.8 * k for k in range(21)]:
                p = probability_3pl(theta, item)
                assert item.c < p < 1.0
                assert p > previous
                previous = p

    def test_extreme_theta_saturates(self):
        item = ItemParams("x", a=2.0, b=0.0, c=0.2)
        assert probability_3pl(-1000.0, item) == pytest.approx(0.2)
        assert probability_3pl(1000.0, item) == pytest.approx(1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ItemParams("x", a=0.0, b=0.0, c=0.1)
        with pytest.raises(ValueError):
            ItemParams("x", a=1.0, b=0.0, c=1.0)


class TestInformation:
    def test_unit_information_fixture(self):
        item = ItemParams("x", a=2.0, b=0.0, c=0.0)
        assert fisher_information(0.0, item) == pytest.approx(1.0, abs=1e-12)

    def test_low_discrimination_fixture(self):
        item = ItemParams("x", a=0.8, b=1.5, c=1.0 / 6.0)
        expected = 0.64 * (7.0 / 12.0) * (5.0 / 12.0)
        assert fisher_information(1.5, item) == pytest.approx(expected, abs=1e-12)
        assert fisher_information(1.5, item) == pytest.approx(0.15556, abs=1e-5)

    def test_tail_limits_of_the_selection_formula(self):
        item = ItemParams("x", a=1.4, b=0.0, c=0.2)
        low = fisher_information(-60.0, item)
        high = fisher_information(60.0, item)
        assert low == pytest.approx(item.a**2 * item.c * (1 - item.c), abs=1e-9)
        assert high == pytest.approx(0.0, abs=1e-9)


class TestEapUpdate:
    def test_fresh_session_estimate(self):
        session = CatSession.start()
        assert session.estimate.theta_hat == 0.0
        theta, se = dense_eap_oracle([], [])
        assert abs(session.estimate.se - se) < 1e-3
        assert session.estimate.n_administered == 0

    def test_one_correct_response_moves_up(self):
        session = CatSession.start()
        eap_update(session, ItemParams("i", a=1.6, b=0.0, c=1.0 / 6.0), True)
        assert session.estimate.theta_hat > 0.0
        assert session.estimate.n_administered == 1

    def test_three_item_sequence_matches_dense_oracle(self):
        items = [
            ItemParams("a", a=1.2, b=-0.5, c=1.0 / 6.0),
            ItemParams("b", a=1.6, b=0.3, c=1.0 / 6.0),
            ItemParams("c", a=2.0, b=0.9, c=1.0 / 6.0),
        ]
        responses = [True, True, False]
        session = CatSession.start()
        for item, correct in zip(items, responses):
            eap_update(session, item, correct)
        theta, se = dense_eap_oracle(items, responses)
        assert session.estimate.theta_hat == pytest.approx(theta, abs=5e-3)
        assert session.estimate.se == pytest.approx(se, abs=5e-3)

    def test_posterior_stays_normalized(self):
        rng = PortableRng(5)
        session = CatSession.start()
        for i in range(40):
            eap_update(session, random_item(rng, f"i{i}"), rng.below(2) == 0)
            assert abs(math.fsum(session.posterior) - 1.0) <= 1e-12

    def test_duplicate_administration_rejected(self):
        session = CatSession.start()
        item = ItemParams("dup", a=1.0, b=0.0, c=0.0)
        eap_update(session, item, True)
        with pytest.raises(DuplicateAdministrationError):
            eap_update(session, item, False)

    def test_grid_fidelity_over_random_sequences(self):
        """61-node estimates track a 4001-node oracle on random response paths."""
        rng = PortableRng(77)
        worst_theta = 0.0
        worst_se = 0.0
        for run in range(100):
            n_items = 1 + rng.below(60)
            items = [random_item(rng, f"r{run}-{i}") for i in range(n_items)]
            responses = [rng.below(2) == 0 for _ in range(n_items)]
            session = CatSession.start()
            for item, correct in zip(items, responses):
                eap_update(session, item, correct)
            theta, se = dense_eap_oracle(items, responses)
            worst_theta = max(worst_theta, abs(session.estimate.theta_hat - theta))
            worst_se = max(worst_se, abs(session.estimate.se - se))
        assert worst_theta < 5e-3
        assert worst_se < 5e-3


class TestSelection:
    def test_matched_difficulty_wins_at_zero(self):
        session = CatSession.start()
        bank = [
            ItemParams("low", a=1.5, b=-2.0, c=0.2),
            ItemParams("mid", a=1.5, b=0.0, c=0.2),
            ItemParams("high", a=1.5, b=2.0, c=0.2),
        ]
        assert select_next(session, bank) is bank[1]

    def test_tie_breaks_to_smaller_id(self):
        session = CatSession.start()
        bank = [
            ItemParams("zz", a=1.5, b=0.0, c=0.2),
            ItemParams("aa", a=1.5, b=0.0, c=0.2),
        ]
        assert select_next(session, bank).item_id == "aa"

    def test_administered_items_not_reselected(self):
        session = CatSession.start()
        bank = [
            ItemParams("one", a=1.5, b=0.0, c=0.2),
            ItemParams("two", a=1.5, b=0.5, c=0.2),
        ]
        first = select_next(session, bank)
        eap_update(session, first, True)
        assert select_next(session, bank) is not first

    def test_skipped_items_not_reselected(self):
        session = CatSession.start()
        bank = [
            ItemParams("one", a=1.5, b=0.0, c=0.2),
            ItemParams("two", a=1.5, b=0.5, c=0.2),
        ]
        session.skipped.add("one")
        assert select_next(session, bank).item_id == "two"

    def test_subset_filtering(self):
        session = CatSession.start(subset="Combinatorial")
        bank = [
            ItemParams("b1", a=1.0, b=0.0, c=0.0, subset="Base"),
            ItemParams("c1", a=1.0, b=0.0, c=0.0, subset="Combinatorial"),
        ]
        assert select_next(session, bank).item_id == "c1"


class TestTermination:
    """``select_next`` returns None exactly when the session's stop rule holds."""

    BANK = [ItemParams(f"i{k}", a=1.0, b=0.0, c=0.0) for k in range(70)]

    def test_precise_enough_stops(self):
        session = CatSession.start()
        session.estimate = AbilityEstimate(0.0, 0.29, 5)
        assert select_next(session, self.BANK) is None

    def test_budget_spent_stops(self):
        session = CatSession.start()
        session.estimate = AbilityEstimate(0.0, 0.8, 60)
        session.administered = [(f"i{k}", True) for k in range(60)]
        assert select_next(session, self.BANK) is None

    def test_skips_spend_the_budget(self):
        session = CatSession.start(max_items=10)
        session.administered = [(f"i{k}", True) for k in range(4)]
        session.skipped = {f"i{k}" for k in range(4, 10)}
        assert select_next(session, self.BANK) is None

    def test_midway_continues(self):
        session = CatSession.start()
        session.estimate = AbilityEstimate(0.0, 0.8, 10)
        session.administered = [(f"i{k}", True) for k in range(10)]
        assert select_next(session, self.BANK).item_id == "i10"

    def test_exhausted_bank_stops(self):
        session = CatSession.start()
        item = ItemParams("only", a=1.0, b=0.0, c=0.0)
        eap_update(session, item, True)
        assert select_next(session, [item]) is None

    def test_stop_settings_come_from_the_session(self):
        assert select_next(CatSession.start(max_items=0), self.BANK) is None
        assert select_next(CatSession.start(se_target=1.5), self.BANK) is None
        assert select_next(CatSession.start(max_items=1, se_target=0.0), self.BANK) is not None


class TestParameterMaps:
    def test_guessing_inverse_of_option_count(self):
        assert guessing_for_options(6) == pytest.approx(1.0 / 6.0)
        assert guessing_for_options(4) == pytest.approx(0.25)

    def test_single_option_rejected(self):
        with pytest.raises(ValueError):
            guessing_for_options(1)


def oracle_difficulty(s_gold, density, tokens, segments):
    """Re-derivation with exact rational arithmetic for the affine terms."""
    rational = (
        Fraction(s_gold).limit_denominator(10**9) - 72
    ) / 54 + Fraction(1, 10) * (Fraction(density).limit_denominator(10**9) - 2)
    rational += (Fraction(segments).limit_denominator(10**9) - 100) / 200
    return float(rational) + math.log10(max(1.0, tokens)) - 3.17


class TestCalibration:
    def test_fixture_values(self):
        assert calibrate_difficulty(25, 2, 1000, 100) == pytest.approx(-1.04037, abs=1e-5)
        assert calibrate_difficulty(72, 2, 1, 100) == pytest.approx(-3.17, abs=1e-12)
        assert calibrate_difficulty(34.8, 3, 10000, 300) == pytest.approx(1.24111, abs=1e-5)

    def test_matches_independent_oracle_on_random_inputs(self):
        rng = PortableRng(31)
        for _ in range(100):
            s_gold = 10.0 + 30.0 * rng.random()
            density = 6.0 * rng.random()
            tokens = rng.below(50000)
            segments = rng.below(400)
            expected = oracle_difficulty(s_gold, density, tokens, segments)
            assert calibrate_difficulty(s_gold, density, tokens, segments) == pytest.approx(
                expected, abs=1e-9
            )

    def test_rejects_non_finite(self):
        with pytest.raises(CalibrationInputError):
            calibrate_difficulty(float("nan"), 2, 100, 10)
        with pytest.raises(CalibrationInputError):
            calibrate_difficulty(25, float("inf"), 100, 10)

    def test_rejects_negative_counts(self):
        with pytest.raises(CalibrationInputError):
            calibrate_difficulty(25, 2, -1, 10)


def make_bank(subset: str, n: int, seed: int) -> list[ItemParams]:
    rng = PortableRng(seed)
    return [random_item(rng, f"{subset}-{i:03d}", subset) for i in range(n)]


def simulated_responder(theta_by_subset, seed):
    rng = PortableRng(seed)

    def respond(item: ItemParams):
        return rng.random() < probability_3pl(theta_by_subset[item.subset], item)

    return respond


def run_session(bank, respond, subset="Base", max_items=60, se_target=0.3) -> CatSession:
    """Step one session to its end; ``respond`` returning None skips the item."""
    session = CatSession.start(subset, max_items, se_target)
    while (item := select_next(session, bank)) is not None:
        outcome = respond(item)
        if outcome is None:
            session.skipped.add(item.item_id)
        else:
            eap_update(session, item, outcome)
    return session


def run_dual(respond, base_bank, comb_bank) -> DualReport:
    check_dual_banks(base_bank, comb_bank)
    base = run_session(base_bank, respond, "Base")
    comb = run_session(comb_bank, respond, "Combinatorial")
    return DualReport(base.estimate, comb.estimate, reference_accuracy(base), reference_accuracy(comb))


class TestSessions:
    def test_session_respects_se_target(self):
        bank = make_bank("Base", 200, 41)
        respond = simulated_responder({"Base": 0.0}, 17)
        session = run_session(bank, respond, se_target=0.3)
        assert session.estimate.se < 0.3
        assert session.estimate.n_administered <= 60

    def test_dual_session_sign_recovery(self):
        base = make_bank("Base", 200, 42)
        comb = make_bank("Combinatorial", 200, 43)
        respond = simulated_responder({"Base": 1.0, "Combinatorial": -1.0}, 7)
        report = run_dual(respond, base, comb)
        assert report.delta_theta > 0

    def test_dual_session_identical_ability_near_zero_gap(self):
        base = make_bank("Base", 200, 44)
        comb = make_bank("Combinatorial", 200, 44)
        respond = simulated_responder({"Base": 0.2, "Combinatorial": 0.2}, 23)
        report = run_dual(respond, base, comb)
        combined = math.hypot(report.base.se, report.comb.se)
        assert abs(report.delta_theta) <= 2 * combined

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_dual_banks([], make_bank("Combinatorial", 5, 1))

    def test_responder_failures_skipped_not_scored(self):
        bank = make_bank("Base", 30, 45)
        failures = {bank[0].item_id, bank[5].item_id}

        def respond(item: ItemParams):
            if item.item_id in failures:
                return None
            return True

        session = run_session(bank, respond, max_items=10)
        administered = {item_id for item_id, _ in session.administered}
        assert not (administered & failures)
        assert session.skipped <= failures

    def test_skipped_items_count_against_the_budget(self):
        bank = make_bank("Base", 500, 48)
        calls = []

        def respond(item: ItemParams):
            calls.append(item.item_id)
            return None

        session = run_session(bank, respond, max_items=60)
        assert len(calls) <= 60
        assert session.estimate.n_administered == 0

    def test_mislabeled_item_rejected_before_any_administration(self):
        base = make_bank("Base", 5, 2)
        comb = make_bank("Combinatorial", 5, 3)
        calls = []
        with pytest.raises(ValueError, match="'Combinatorial-000'.*'Combinatorial'.*'Base'"):
            run_dual(lambda item: calls.append(item) or True, comb, base)
        assert calls == []

    def test_zero_se_target_runs_the_whole_budget(self):
        bank = make_bank("Base", 50, 47)
        respond = simulated_responder({"Base": 0.5}, 3)
        session = run_session(bank, respond, max_items=8, se_target=0.0)
        assert len(session.administered) == 8
        assert session.estimate.n_administered == 8

    def test_dual_report_delta_identity(self):
        report = DualReport(
            base=AbilityEstimate(0.5, 0.3, 10),
            comb=AbilityEstimate(-1.0, 0.3, 12),
            base_accuracy=0.7,
            comb_accuracy=0.4,
        )
        assert report.delta_theta == pytest.approx(1.5)
        assert report.to_record()["delta_theta"] == pytest.approx(1.5)

    def test_se_shrinks_as_responses_accumulate(self):
        """Statistically, twenty on-target responses concentrate the posterior."""
        rng = PortableRng(61)
        shrank = 0
        runs = 200
        for run in range(runs):
            session = CatSession.start()
            initial_se = session.estimate.se
            theta_star = -2.0 + 4.0 * rng.random()
            for i in range(20):
                item = ItemParams(f"s{run}-{i}", a=1.6, b=theta_star - 1 + 2 * rng.random(), c=1.0 / 6.0)
                eap_update(session, item, rng.random() < probability_3pl(theta_star, item))
            shrank += session.estimate.se < initial_se
        assert shrank >= 0.99 * runs
