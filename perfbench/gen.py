"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own work: it runs before the measured
process starts and counts in no metric. The same seed gives the same files
byte for byte (``random.Random`` seeded with an int, JSON written in a fixed
key order).

Traces carry planted lexicon markers. Only markers that, set between filler
words, match no marker but themselves are planted, and filler words share no
word with any marker, so the expected value of every trace metric is known by
construction; it is written next to the traces as ``expected_metrics.json``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import checks

ANSWERS = ("I", "II", "III", "IV")
LETTERS = "ABCD"
TIERS = ("Easy", "Medium", "Hard", "Expert")
TIER_DISCRIMINATION = {"Easy": 0.8, "Medium": 1.2, "Hard": 1.6, "Expert": 2.0}

# Workload sizes. "full" is what the benchmark measures; "toy" keeps the
# self-tests quick. Each "full" round is sized to a few seconds of work.
SIZES = {
    "full": {
        "pipeline": {"questions": 240, "min_tokens": 40, "max_tokens": 2400},
        "harden": {"questions": 5000},
        "live": {"questions": 16, "cat_questions": 40, "max_items": 20, "fault_window": 80},
    },
    "toy": {
        "pipeline": {"questions": 16, "min_tokens": 30, "max_tokens": 300},
        "harden": {"questions": 60},
        "live": {"questions": 4, "cat_questions": 12, "max_items": 4, "fault_window": 24},
    },
}

PIPELINE_TIER_SPLIT = "Medium:40,Hard:40,Expert:20"
HARDEN_TIER_SPLIT = "Easy:10,Medium:15,Hard:20,Expert:55"
LIVE_TIER_SPLIT = "Easy:15,Medium:30,Hard:30,Expert:25"

_EN_FILLER = (
    "ledger column value group member record ticket north river table entry count "
    "candidate schedule morning evening budget seat window train station teacher "
    "student class room clause fact figure list item row pair order rank score "
    "total sum team player match city route bridge tower garden library report "
    "survey sample office desk chair lamp paper folder letter number week month "
    "season field harbor valley island market village street corner"
).split()
_ZH_FILLER = (
    "条件 甲方 乙方 名单 座位 列车 车站 老师 学生 班级 房间 数字 表格 记录 成员 小组 "
    "顺序 排名 分数 总数 城市 路线 桥梁 花园 图书 报告 样本 时间 地点 预算 窗口 早上 "
    "晚上 办公 书桌 椅子 台灯 文件 信件 星期 月份 季节 田野 港口 山谷 岛屿 市场 村庄 街道"
).split()

_ASCII_MARKER_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789' ,-")


# ---------------------------------------------------------------------------
# Lexicon-aware planting vocabulary
# ---------------------------------------------------------------------------


def _is_ascii_marker(marker: str) -> bool:
    return all(ch in _ASCII_MARKER_CHARS for ch in marker.lower())


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def count_marker(marker: str, text: str) -> int:
    """Non-overlapping occurrences: word-bounded and caseless for ASCII markers,
    plain substrings otherwise (the lexicon semantics the README documents)."""
    if _is_ascii_marker(marker):
        haystack, needle = text.lower(), marker.lower()
    else:
        haystack, needle = text, marker
    count = 0
    start = haystack.find(needle)
    while start != -1:
        end = start + len(needle)
        bounded = True
        if _is_ascii_marker(marker):
            before = haystack[start - 1] if start else " "
            after = haystack[end] if end < len(haystack) else " "
            bounded = not (_is_word_char(before) and _is_word_char(needle[0])) and not (
                _is_word_char(after) and _is_word_char(needle[-1])
            )
        if bounded:
            count += 1
            start = haystack.find(needle, end)
        else:
            start = haystack.find(needle, start + 1)
    return count


def _categories(raw: dict) -> dict[str, list[str]]:
    """Flatten a lexicon file to category -> markers (e.g. "epistemic.certain")."""
    flat: dict[str, list[str]] = {}
    for key, value in raw.items():
        if isinstance(value, dict):
            for sub, markers in value.items():
                flat[f"{key}.{sub}"] = list(markers)
        else:
            flat[key] = list(value)
    return flat


def load_vocabulary(src_dir: str) -> dict:
    """Clean planting markers per language and category, plus filler words."""
    data_dir = os.path.join(src_dir, "combicat", "data")
    lexicons = {}
    for lang in ("en", "zh"):
        with open(os.path.join(data_dir, f"lexicon_{lang}.json"), encoding="utf-8") as fh:
            lexicons[lang] = _categories(json.load(fh))
    everything = [(cat, m) for lex in lexicons.values() for cat, ms in lex.items() for m in ms]
    marker_words = {w for _, m in everything if _is_ascii_marker(m) for w in m.lower().replace(",", " ").split()}

    vocab: dict = {}
    for lang, lex in lexicons.items():
        clean: dict[str, list[str]] = {}
        for cat, markers in lex.items():
            for marker in markers:
                padded = f"zq {marker} zq"
                hits = [(c, m) for c, m in everything if count_marker(m, padded)]
                if hits == [(cat, marker)] and count_marker(marker, padded) == 1:
                    clean.setdefault(cat, []).append(marker)
        filler_source = _EN_FILLER if lang == "en" else _ZH_FILLER
        filler = [
            w for w in filler_source
            if w not in marker_words and not any(count_marker(m, f" {w} ") for _, m in everything)
        ]
        vocab[lang] = {"markers": clean, "filler": filler}
    return vocab


# ---------------------------------------------------------------------------
# Atomic banks
# ---------------------------------------------------------------------------


def _atomic_record(rng: random.Random, index: int, lang: str, extras: dict | None = None) -> dict:
    qid = f"q{index:05d}"
    if lang == "en":
        context = f"Case {qid}: exactly one of the four claims about the {rng.choice(_EN_FILLER)} holds."
        options = {label: f"claim {index}-{label.lower()} about the {rng.choice(_EN_FILLER)} holds" for label in ANSWERS}
    else:
        context = f"案例 {qid}：关于{rng.choice(_ZH_FILLER)}的四个说法中恰有一个成立。"
        options = {label: f"说法 {index}-{label} 关于{rng.choice(_ZH_FILLER)}成立" for label in ANSWERS}
    record = {
        "id": qid,
        "context": context,
        "options": options,
        "answer": rng.choice(ANSWERS),
        "language": lang,
        "source": "perfbench",
        "reasoning_type": "propositional",
    }
    record.update(extras or {})
    return record


def _atomic_bank(rng: random.Random, n: int, extras_for=None) -> list[dict]:
    records = []
    for i in range(n):
        lang = "zh" if rng.random() < 0.4 else "en"
        records.append(_atomic_record(rng, i, lang, extras_for(rng) if extras_for else None))
    return records


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=1)
        fh.write("\n")


def _write_bank(path: str, records: list[dict]) -> None:
    _write_json(path, {"schema_version": 1, "questions": records})


def _inline_features(rng: random.Random) -> dict:
    """Calibration features carried inline on harden's atomic records."""
    return {
        "gold_score": round(rng.uniform(8.0, 40.0), 6),
        "logic_density": round(rng.uniform(0.0, 8.0), 6),
        "token_count": int(30 * 1000 ** rng.random()),
        "segment_count": rng.randint(1, 300),
    }


# ---------------------------------------------------------------------------
# Traces with planted markers
# ---------------------------------------------------------------------------

# Expected planted events per token, by category group.
_RATES = {
    "connectives": (0.02, 0.05),
    "reversal": (0.002, 0.006),
    "epistemic": (0.001, 0.004),
    "pivot": (0.001, 0.003),
    "premise_layer": (0.002, 0.005),
    "deduction_step": (0.002, 0.006),
    "abductive": (0.001, 0.003),
    "dialectic": (0.0005, 0.002),
}


def _shannon(counts: list[int]) -> float:
    positive = [c for c in counts if c > 0]
    total = sum(positive)
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in positive)


def _decorate(rng: random.Random, marker: str, lang: str) -> str:
    if lang != "en":
        return marker
    if rng.random() < 0.3:
        marker = marker[0].upper() + marker[1:]
    if rng.random() < 0.3:
        marker += rng.choice(",.;:")
    return marker


def make_trace(rng: random.Random, vocab: dict, lang: str, n_tokens: int, final_letter: str) -> tuple[str, dict]:
    """One trace of about ``n_tokens`` whitespace tokens and its expected metrics."""
    markers = vocab[lang]["markers"]
    filler = vocab[lang]["filler"]

    def pick(cat: str) -> str:
        return _decorate(rng, rng.choice(markers[cat]), lang)

    def draw(group: str) -> int:
        lo, hi = _RATES[group]
        return int(n_tokens * rng.uniform(lo, hi) + rng.random())

    counts: dict[str, int] = {}
    units: list[list[str]] = []  # each unit is planted text pieces kept in order

    def plant(cat: str, n: int) -> None:
        counts[cat] = counts.get(cat, 0) + n
        units.extend([[pick(cat)] for _ in range(n)])

    plant("connectives", draw("connectives"))
    plant("reversal", draw("reversal"))
    plant("pivot", draw("pivot"))
    plant("premise_layer", draw("premise_layer"))
    plant("deduction_step", draw("deduction_step"))
    epistemic_classes = sorted(c for c in markers if c.startswith("epistemic."))
    for cat in epistemic_classes:
        plant(cat, draw("epistemic") if rng.random() < 0.8 else 0)
    abstraction_level = 0
    for cat in sorted(c for c in markers if c.startswith("abstraction.")):
        if rng.random() < 0.35:
            plant(cat, 1 + rng.randrange(2))
            abstraction_level = max(abstraction_level, int(cat.split(".")[1]))
    contradictions = rng.randrange(3) if rng.random() < 0.3 else 0
    plant("contradiction", contradictions)

    abductive = draw("abductive")
    for _ in range(abductive):
        units.append([pick("hypothesis"), pick("elimination")])
    dialectic = draw("dialectic")
    for _ in range(dialectic):
        units.append([pick("thesis"), pick("antithesis"), pick("synthesis")])

    mismatches = 0
    if lang == "en":
        for _ in range(rng.randrange(3)):
            letter = rng.choice(LETTERS)
            mismatches += letter != final_letter
            units.append([f"the answer is {letter}"])

    rng.shuffle(units)
    # Flatten: filler between every planted piece so no two pieces touch.
    planted_tokens = sum(len(piece.split()) for unit in units for piece in unit)
    pieces = [piece for unit in units for piece in unit]
    n_filler = max(len(pieces) + 1, n_tokens - planted_tokens)
    gaps = [1] * (len(pieces) + 1)
    for _ in range(n_filler - len(gaps)):
        gaps[rng.randrange(len(gaps))] += 1
    words: list[str] = []
    for i, gap in enumerate(gaps):
        words.extend(rng.choice(filler) for _ in range(gap))
        if i < len(pieces):
            words.append(pieces[i])

    # Blank-line segments, cut between whole pieces; some open with "N." heads.
    n_segments = max(1, min(len(words) // 8, int(1 + n_tokens / rng.uniform(40, 120))))
    cut_points = sorted(rng.sample(range(1, len(words)), n_segments - 1)) if n_segments > 1 else []
    bounds = [0, *cut_points, len(words)]
    segments = []
    numbered = 0
    for k in range(n_segments):
        chunk = words[bounds[k] : bounds[k + 1]]
        if rng.random() < 0.25:
            numbered += 1
            chunk = [f"{numbered}."] + chunk
        segments.append(" ".join(chunk))
    text = "\n\n".join(segments) + f"\n{final_letter}"

    token_count = len(text.split())
    expected = {
        "oscillation": counts.get("reversal", 0),
        "logic_density": 100.0 * counts.get("connectives", 0) / max(1, token_count),
        "abductive_depth": abductive,
        "dialectic_tension": dialectic,
        "dimensional_awareness": counts.get("premise_layer", 0),
        "chain_steps": counts.get("deduction_step", 0) + numbered,
        "uncertainty_entropy": _shannon([counts.get(c, 0) for c in epistemic_classes]),
        "pivot_count": counts.get("pivot", 0),
        "abstraction_level": abstraction_level,
        "token_count": token_count,
        "segment_count": n_segments,
        "fallacy": float(mismatches + contradictions),
    }
    return text, expected


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def _synthesize(src_dir: str, bank: str, out: str, tier_split: str, seed: int) -> None:
    """Harden a generated bank with the program itself (input preparation only)."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run(
        [sys.executable, "-m", "combicat.cli", "synthesize", "--bank", bank, "--out", out,
         "--tier-split", tier_split, "--seed", str(seed)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )


def _item_bank(rng: random.Random, records: list[dict], subset: str, mean_b: float, combinatorial: bool) -> dict:
    items = []
    for record in records:
        tier = record["tier"] if combinatorial else rng.choice(TIERS)
        n_options = len(record["options"])
        items.append({
            "item_id": f"{subset}:{record['id']}",
            "question_id": record["id"],
            "subset": subset,
            "tier": tier,
            "a": TIER_DISCRIMINATION[tier],
            "b": max(-3.5, min(3.5, rng.gauss(mean_b, 1.2))),
            "c": 1.0 / n_options,
            "n_options": n_options,
        })
    return {"schema_version": 1, "items": items}


def gen_pipeline(out: str, seed: int, size: dict, vocab: dict) -> dict:
    rng = random.Random(seed)
    n = size["questions"]
    records = _atomic_bank(rng, n)
    _write_bank(os.path.join(out, "atomic.json"), records)
    lo, hi = size["min_tokens"], size["max_tokens"]
    lengths = [int(lo * (hi / lo) ** (i / max(1, n - 1))) for i in range(n)]
    rng.shuffle(lengths)
    expected = {}
    with open(os.path.join(out, "traces.jsonl"), "w", encoding="utf-8") as fh:
        for record, n_tokens in zip(records, lengths):
            letter = LETTERS[ANSWERS.index(record["answer"])]
            text, metrics = make_trace(rng, vocab, record["language"], n_tokens, letter)
            expected[record["id"]] = metrics
            fh.write(json.dumps({"question_id": record["id"], "text": text}, ensure_ascii=False) + "\n")
    _write_json(os.path.join(out, "expected_metrics.json"), expected)
    thetas = (round(rng.uniform(-1.0, 1.5), 3), round(rng.uniform(-2.0, 0.5), 3))
    return {"questions": n, "theta_base": thetas[0], "theta_comb": thetas[1], "tier_split": PIPELINE_TIER_SPLIT}


def gen_harden(out: str, seed: int, size: dict, vocab: dict) -> dict:
    rng = random.Random(seed)
    records = _atomic_bank(rng, size["questions"], _inline_features)
    _write_bank(os.path.join(out, "atomic.json"), records)
    return {"questions": len(records), "tier_split": HARDEN_TIER_SPLIT}


def gen_live(out: str, seed: int, size: dict, vocab: dict, src_dir: str) -> dict:
    rng = random.Random(seed)
    n_cat = size["cat_questions"]
    records = _atomic_bank(rng, n_cat)
    atomic = os.path.join(out, "atomic.json")
    comb = os.path.join(out, "comb.json")
    _write_bank(atomic, records)
    _write_bank(os.path.join(out, "atomic_static.json"), records[: size["questions"]])
    _synthesize(src_dir, atomic, comb, LIVE_TIER_SPLIT, seed)
    # The stub answers from answer_set, so the program's hardened bank must
    # pass the benchmark's own checks before it serves as the gold answers.
    problems = checks.check_comb_bank(comb, atomic)
    if problems:
        raise ValueError(f"hardened live bank fails its checks: {problems[:5]}")
    with open(comb, encoding="utf-8") as fh:
        comb_records = json.load(fh)["questions"]
    _write_json(os.path.join(out, "base_items.json"), _item_bank(rng, records, "Base", 0.0, False))
    _write_json(os.path.join(out, "comb_items.json"), _item_bank(rng, comb_records, "Combinatorial", 0.0, True))

    # The stub's script. Replies: per (question, kind) whether the answer is
    # right and how it is decorated. Faults: keyed by request arrival order, so
    # every seed sees the same number of 429s, 503s and slow replies; arrivals
    # are spaced so that no request fails more than max_retries = 2 times.
    replies = {
        f"{record['id']}|{kind}": {"correct": rng.random() < 0.6, "style": rng.randrange(4)}
        for record in records
        for kind in ("atomic", "comb")
    }
    actions = ["429", "429", "503", "503+429", "slow", "slow"]
    rng.shuffle(actions)
    slots = rng.sample(range(size["fault_window"] // 4), len(actions))
    faults: dict[str, str] = {}
    for slot, action in zip(slots, actions):
        if action == "503+429":
            faults[str(4 * slot)] = "503"
            faults[str(4 * slot + 1)] = "429"
        else:
            faults[str(4 * slot)] = action
    _write_json(os.path.join(out, "stub_script.json"), {"replies": replies, "faults": faults})
    return {"questions": size["questions"], "cat_questions": n_cat, "max_items": size["max_items"]}


GENERATORS = {"pipeline": gen_pipeline, "harden": gen_harden, "live": gen_live}


def generate(workload: str, out: str, seed: int, size_name: str, src_dir: str) -> dict:
    """Write one workload's inputs into ``out``; returns the manifest."""
    os.makedirs(out, exist_ok=True)
    vocab = load_vocabulary(src_dir)
    size = SIZES[size_name][workload]
    fn = GENERATORS[workload]
    if workload == "live":
        manifest = fn(out, seed, size, vocab, src_dir)
    else:
        manifest = fn(out, seed, size, vocab)
    manifest.update({"workload": workload, "seed": seed, "size": size_name})
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest
