"""Byte-identity gate: banks, logs and reports must not change for a fixed seed.

The first hashes pin the exact bytes ``save_comb_bank`` writes for a
400-question English bank plus one Chinese question under each tier. The
second set pins every file a small offline CLI chain writes: the
combinatorial bank, scores and corpus stats, both item banks, and the log and
report of an adaptive run and of a static run with baselines. A report holds
the ``config_hash`` of its resolved settings, so a changed default or setting
key shows here too. Any change to pool order, sampling, rendering,
serialization or record layout changes a hash; a change that means to do so
must say so and bump the schema version.
"""

import hashlib

import pytest

from combicat.bankio import save_atomic_bank, save_comb_bank
from combicat.cli import main
from combicat.synthesis import AtomicQuestion, synthesize_bank
from conftest import make_atomic_bank, make_trace_corpus, write_jsonl

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


CHAIN_SHA256 = {
    "comb.json": "dd57fdf004e1c5e04b709859cb29cc14c49f93d5c475cdc8851dbf1bbdc3e3b1",
    "scores.jsonl": "601de4384f6f7fe2e088a3b148a3083ebdc5a60e5b6c70f5449951f0822de98a",
    "stats.json": "2956702c74cd4d129d126a46868ac49c08e4b0ae8ed9f910829fd541b55d00c2",
    "base_items.json": "9bc543e88fc5ac97e700cb6bc0e495bd6b8ca7a9b42b2c3ca648b313250f5a70",
    "comb_items.json": "10de76836496e69696960a923111388a2b1c2b34e62d4124e838424786fd5763",
    "cat/run.jsonl": "8ef3c819a4f423d3ab017ab16135d17a42f334e886f827fdba2d89a4365f2683",
    "cat/report.json": "25dc405ad0e0988c41ff7612e276c5ca2f7b88e5a4ec95fee8e1d615b50415f9",
    "static/run.jsonl": "ada04a2774cc94741001b6d59c69d29f9a8ada099850645a459954126b033df1",
    "static/report.json": "d65487d62e33cb9df0b53d41ca3b91c8888e3fefeb974bc3c367a2fcce39d41f",
}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """Run synthesize, score-traces, calibrate x2 and two evaluates; return the directory."""
    root = tmp_path_factory.mktemp("chain")
    questions = make_atomic_bank(24, seed=31)
    save_atomic_bank(str(root / "atomic.json"), questions)
    write_jsonl(root / "traces.jsonl", make_trace_corpus(questions, seed=32))
    banks = ["--base-bank", str(root / "atomic.json"), "--comb-bank", str(root / "comb.json")]
    items = ["--base-items", str(root / "base_items.json"), "--comb-items", str(root / "comb_items.json")]
    steps = [
        ["synthesize", "--bank", str(root / "atomic.json"), "--out", str(root / "comb.json"),
         "--tier-split", "Easy:10,Medium:40,Hard:35,Expert:15", "--seed", "3"],
        ["score-traces", "--traces", str(root / "traces.jsonl"), "--out", str(root / "scores.jsonl"),
         "--stats-out", str(root / "stats.json")],
        ["calibrate", "--bank", str(root / "atomic.json"), "--scores", str(root / "scores.jsonl"),
         "--out", str(root / "base_items.json")],
        ["calibrate", "--bank", str(root / "comb.json"), "--scores", str(root / "scores.jsonl"),
         "--out", str(root / "comb_items.json")],
        ["evaluate", *banks, *items, "--mode", "cat", "--simulator", "3pl:0.5,-1.5",
         "--out", str(root / "cat")],
        ["evaluate", *banks, *items, "--baseline", "nota,shuffle", "--simulator", "3pl:0.5,-0.5",
         "--seed", "4", "--out", str(root / "static")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return root


@pytest.mark.parametrize("name", list(CHAIN_SHA256))
def test_cli_chain_outputs_are_pinned(chain_dir, name):
    assert hashlib.sha256((chain_dir / name).read_bytes()).hexdigest() == CHAIN_SHA256[name]
