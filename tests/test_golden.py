"""Byte-identity gate: synthesized banks must not change for a fixed seed.

The hashes pin the exact bytes ``save_comb_bank`` writes for a 400-question
English bank plus one Chinese question under each tier. Any change to pool
order, sampling, rendering, serialization or record layout changes a hash; a
change that means to do so must say so and bump the schema version.
"""

import hashlib

import pytest

from combicat.bankio import save_comb_bank
from combicat.synthesis import AtomicQuestion, synthesize_bank
from conftest import make_atomic_bank

GOLDEN_SHA256 = {
    "Easy": "8043310c07c71d8c99f5fdf9b773b2eb6c75b0e16bfe6f743c0025216f76f061",
    "Medium": "ffc437f9dd801a1e388ce06116a5916c0db5bafec8f086b1bee074f97b6d96a6",
    "Hard": "205d275ec5411d4d6c6508b95f722ed45574548063abac8fc61c8fbc1226a9ab",
    "Expert": "36cd9da03939744f57761879be9a1e0c8eccf50f4aaef624e18b49f614542f1a",
}

ZH_QUESTION = AtomicQuestion(
    id="zh1",
    context="以下哪项陈述成立？",
    options={"I": "甲队获胜", "II": "乙队获胜", "III": "丙队获胜", "IV": "丁队获胜"},
    answer="II",
    language="zh",
)


@pytest.mark.parametrize("tier", list(GOLDEN_SHA256))
def test_synthesized_bank_bytes_are_pinned(tier, tmp_path):
    questions = make_atomic_bank(400, seed=123) + [ZH_QUESTION]
    bank, _ = synthesize_bank(questions, seed=11, tier_for=lambda q: tier)
    path = tmp_path / "comb.json"
    save_comb_bank(str(path), bank)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[tier]
