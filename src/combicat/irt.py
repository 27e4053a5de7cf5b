"""Three-parameter logistic response model and the adaptive testing engine.

Ability is estimated as the posterior mean over a fixed 61-node quadrature
grid on [-6, 6] under a standard-normal prior. A ``CatSession`` is a value its
caller steps through: ``select_next`` returns the most informative eligible
item at the current estimate, or ``None`` once the posterior standard
deviation falls under the target, the item budget is spent or no eligible item
is left; ``eap_update`` records a response, and a skipped item is added to
``session.skipped``. A dual run holds one session each on the Base (atomic)
and Combinatorial (hardened) subsets, and ``DualReport`` gives the gap
between the two estimates.

Reductions over grid nodes use ``math.fsum`` so that symmetric posteriors give
exactly symmetric estimates (a fresh session's mean is exactly zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

BASE_SUBSET = "Base"
COMBINATORIAL_SUBSET = "Combinatorial"

DEFAULT_MAX_ITEMS = 60
DEFAULT_SE_TARGET = 0.3


class DuplicateAdministrationError(RuntimeError):
    """An item was offered to the same session twice."""


class CalibrationInputError(ValueError):
    """Difficulty calibration received non-finite or negative inputs."""


@dataclass(frozen=True)
class ItemParams:
    """3PL parameter triple for one bank item."""

    item_id: str
    a: float
    b: float
    c: float
    subset: str = BASE_SUBSET

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"item {self.item_id!r}: discrimination must be positive")
        if not 0 <= self.c < 1:
            raise ValueError(f"item {self.item_id!r}: guessing parameter must lie in [0, 1)")


# The quadrature grid: 61 ability nodes spaced 0.2 apart across [-6, 6]. Node i
# is (i - 30) * 0.2, so the grid is exactly symmetric and its middle node is
# exactly 0; the standard-normal prior weights are normalized with fsum.
GRID_NODES: tuple[float, ...] = tuple((i - 30) * 0.2 for i in range(61))
_DENSITY = [math.exp(-0.5 * x * x) for x in GRID_NODES]
_DENSITY_TOTAL = math.fsum(_DENSITY)
PRIOR_WEIGHTS: tuple[float, ...] = tuple(d / _DENSITY_TOTAL for d in _DENSITY)


def probability_3pl(theta: float, item: ItemParams) -> float:
    """Probability of a correct response: c + (1 - c) / (1 + exp(-a (theta - b)))."""
    exponent = -item.a * (theta - item.b)
    # Clamp to avoid overflow at extreme abilities; the result saturates anyway.
    if exponent > 700:
        logistic = 0.0
    elif exponent < -700:
        logistic = 1.0
    else:
        logistic = 1.0 / (1.0 + math.exp(exponent))
    return item.c + (1.0 - item.c) * logistic


def fisher_information(theta: float, item: ItemParams) -> float:
    """Item information at an ability level by the selection criterion a^2 P (1 - P)."""
    p = probability_3pl(theta, item)
    return item.a * item.a * p * (1.0 - p)


@dataclass(frozen=True)
class AbilityEstimate:
    theta_hat: float
    se: float
    n_administered: int

    def to_record(self) -> dict:
        return {"theta_hat": self.theta_hat, "se": self.se, "n_administered": self.n_administered}


def _posterior_estimate(posterior: Sequence[float], n: int) -> AbilityEstimate:
    theta = math.fsum(node * w for node, w in zip(GRID_NODES, posterior))
    variance = math.fsum(w * (node - theta) ** 2 for node, w in zip(GRID_NODES, posterior))
    return AbilityEstimate(theta_hat=theta, se=math.sqrt(max(variance, 0.0)), n_administered=n)


@dataclass
class CatSession:
    """Posterior state on the standard grid, stop settings and administration history for one subset."""

    subset: str
    posterior: list[float]
    max_items: int = DEFAULT_MAX_ITEMS
    se_target: float = DEFAULT_SE_TARGET
    administered: list[tuple[str, bool]] = field(default_factory=list)
    skipped: set[str] = field(default_factory=set)
    estimate: AbilityEstimate = field(init=False)

    def __post_init__(self) -> None:
        self.estimate = _posterior_estimate(self.posterior, len(self.administered))

    @classmethod
    def start(
        cls, subset: str = BASE_SUBSET, max_items: int = DEFAULT_MAX_ITEMS, se_target: float = DEFAULT_SE_TARGET
    ) -> "CatSession":
        return cls(subset=subset, posterior=list(PRIOR_WEIGHTS), max_items=max_items, se_target=se_target)

    def administered_ids(self) -> set[str]:
        return {item_id for item_id, _ in self.administered}


def eap_update(session: CatSession, item: ItemParams, correct: bool) -> CatSession:
    """Fold one response into the posterior and refresh the estimate."""
    if item.item_id in session.administered_ids():
        raise DuplicateAdministrationError(f"item {item.item_id!r} already administered")
    updated = []
    for node, weight in zip(GRID_NODES, session.posterior):
        p = probability_3pl(node, item)
        updated.append(weight * (p if correct else 1.0 - p))
    total = math.fsum(updated)
    if total <= 0.0:
        raise RuntimeError("posterior vanished; response pattern has zero likelihood on the grid")
    session.posterior = [w / total for w in updated]
    session.administered.append((item.item_id, bool(correct)))
    session.estimate = _posterior_estimate(session.posterior, len(session.administered))
    return session


def select_next(session: CatSession, bank: Sequence[ItemParams]) -> ItemParams | None:
    """The most informative eligible item at the current estimate, or None once the session stops.

    A session stops once precise enough, out of budget (administered plus
    skipped) or out of eligible items: those of its subset neither
    administered nor skipped. Ties go to the lexicographically smallest item
    id so replays are stable.
    """
    if session.estimate.se < session.se_target:
        return None
    if len(session.administered) + len(session.skipped) >= session.max_items:
        return None
    theta = session.estimate.theta_hat
    used = session.administered_ids() | session.skipped
    best: ItemParams | None = None
    best_info = -math.inf
    for item in bank:
        if item.subset != session.subset or item.item_id in used:
            continue
        info = fisher_information(theta, item)
        if info > best_info or (info == best_info and item.item_id < best.item_id):
            best = item
            best_info = info
    return best


# ---------------------------------------------------------------------------
# Parameter assignment
# ---------------------------------------------------------------------------

def guessing_for_options(n_options: int) -> float:
    """Pseudo-guessing as the inverse of the option count."""
    if n_options < 2:
        raise ValueError(f"option count {n_options} leaves nothing to guess among")
    return 1.0 / n_options


def calibrate_difficulty(
    s_gold: float, logic_density: float, token_count: float, segment_count: float
) -> float:
    """Difficulty from cognitive features of the item's scoring trace.

    b = (score - 72) / 54 + 0.1 (density - 2) + log10(max(1, tokens)) - 3.17
        + (segments - 100) / 200
    """
    inputs = (s_gold, logic_density, token_count, segment_count)
    if not all(math.isfinite(x) for x in inputs):
        raise CalibrationInputError(f"non-finite calibration inputs {inputs}")
    if token_count < 0 or segment_count < 0:
        raise CalibrationInputError("token and segment counts must be non-negative")
    return (
        (s_gold - 72.0) / 54.0
        + 0.1 * (logic_density - 2.0)
        + math.log10(max(1.0, token_count))
        - 3.17
        + (segment_count - 100.0) / 200.0
    )


# ---------------------------------------------------------------------------
# Dual runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualReport:
    """Outcome of independent Base and Combinatorial sessions."""

    base: AbilityEstimate
    comb: AbilityEstimate
    base_accuracy: float
    comb_accuracy: float

    @property
    def delta_theta(self) -> float:
        return self.base.theta_hat - self.comb.theta_hat

    def to_record(self) -> dict:
        return {
            "base": self.base.to_record(),
            "comb": self.comb.to_record(),
            "base_accuracy": self.base_accuracy,
            "comb_accuracy": self.comb_accuracy,
            "delta_theta": self.delta_theta,
        }


def check_dual_banks(base_bank: Sequence[ItemParams], comb_bank: Sequence[ItemParams]) -> None:
    """Raise ValueError unless both banks are non-empty and hold only their own subset's items."""
    for subset, bank in ((BASE_SUBSET, base_bank), (COMBINATORIAL_SUBSET, comb_bank)):
        if not bank:
            raise ValueError("both banks must be non-empty for a dual run")
        for item in bank:
            if item.subset != subset:
                raise ValueError(f"item {item.item_id!r} is labeled {item.subset!r} but was passed as {subset!r}")
