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
    "Easy": "2e90945f49cd16fdac1e0035eee0e3b6a024932c3c6ef4190a1cb41989e9489f",
    "Medium": "c7262ef45a9f8ba02e306a9c6292b02322d3a3b694afa4dc3970fe99f3811680",
    "Hard": "9e51ae80cd972934abccc97b95fd0b0c23abcb3fe88613723097d5a167d91f64",
    "Expert": "7e7a066f4b8499f91122e8fdc4b84ce06cc4d944ce38277718a0328aea831ac1",
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
    "comb.json": "5e3a399d77b5878c10c147c6f52c3ccf277be2ed0f0579373567d8620ab0589d",
    "scores.jsonl": "d7b099fc404a14e6a932fadae19c363cb5aea93ce4b05117c4e796213bd32358",
    "stats.json": "3510568a5824c1cd5b3a3946a3b854b0b965f18a1706f65862d9371a068e9894",
    "base_items.json": "e68bfee38f5e602662bc7dd84c7f2864203ed36152ee32bf9a36852f079008c9",
    "comb_items.json": "2960ef7091923cf5e2408fedaa41ab3c716e00e670312f3cb5ca4792dfd4f53e",
    "cat/run.jsonl": "8ef3c819a4f423d3ab017ab16135d17a42f334e886f827fdba2d89a4365f2683",
    "cat/report.json": "853342d0c7e64fb0140987d970b92cd1a994e78d48f61e0f6fd24e529dd1753b",
    "static/run.jsonl": "ada04a2774cc94741001b6d59c69d29f9a8ada099850645a459954126b033df1",
    "static/report.json": "ef9a32b58596a5ffac5b3511cccaacd85dbbeeae0c0c3c61341866a91f443bd6",
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
