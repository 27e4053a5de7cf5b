"""Correctness checks, computed apart from the program.

Each check reads the program's output files and recomputes what they must
hold from the inputs and the method alone: its own formula parser and
evaluator, its own 3PL/EAP arithmetic on the 61-node grid, the planted marker
counts, and the stub's script. None compares against a stored copy of an
earlier output. Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import re

TIER_ANSWER_RANGE = {"Easy": (1, 1), "Medium": (1, 2), "Hard": (1, 3), "Expert": (2, 4)}
TIER_DISCRIMINATION = {"Easy": 0.8, "Medium": 1.2, "Hard": 1.6, "Expert": 2.0}
TIER_REQUIRED = {"Easy": (), "Medium": (), "Hard": ("negation",), "Expert": ("disjunction", "negation")}
STATEMENT_BITS = {"I": 0, "II": 1, "III": 2, "IV": 3}
LETTERS = "ABCDEFGH"
TOLERANCE = 1e-9


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"VAR|NOT|AND|OR|IV|III|II|I|[(),]")


def parse(text: str):
    """Prefix text (``AND(VAR(I),NOT(VAR(II)))``) to nested tuples."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != text:
        raise ValueError(f"bad formula {text!r}")
    pos = 0

    def node():
        nonlocal pos
        head = tokens[pos]
        if tokens[pos + 1] != "(":
            raise ValueError(f"bad formula {text!r}")
        pos += 2
        if head == "VAR":
            result = ("VAR", tokens[pos])
            pos += 1
        elif head == "NOT":
            result = ("NOT", node())
        else:
            left = node()
            if tokens[pos] != ",":
                raise ValueError(f"bad formula {text!r}")
            pos += 1
            result = (head, left, node())
        if tokens[pos] != ")":
            raise ValueError(f"bad formula {text!r}")
        pos += 1
        return result

    tree = node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return tree


def evaluate(tree, true_statements: set[str]) -> bool:
    op = tree[0]
    if op == "VAR":
        return tree[1] in true_statements
    if op == "NOT":
        return not evaluate(tree[1], true_statements)
    if op == "AND":
        return evaluate(tree[1], true_statements) and evaluate(tree[2], true_statements)
    return evaluate(tree[1], true_statements) or evaluate(tree[2], true_statements)


def truth_mask(tree) -> int:
    """16-bit truth table over all valuations of I..IV."""
    mask = 0
    for row in range(16):
        true = {label for label, bit in STATEMENT_BITS.items() if row >> bit & 1}
        if evaluate(tree, true):
            mask |= 1 << row
    return mask


def operator_kind(tree) -> str | None:
    """disjunction, negation (compound negations included), exactness, or None."""
    if tree[0] == "NOT" and tree[1][0] == "VAR":
        return "negation"
    if tree[0] == "OR" and tree[1][0] == "VAR" and tree[2][0] == "VAR":
        return "disjunction"
    if tree[0] == "AND":
        conjuncts, stack = [], [tree]
        while stack:
            item = stack.pop()
            if item[0] == "AND":
                stack += [item[1], item[2]]
            else:
                conjuncts.append(item)
        negated = [c for c in conjuncts if c[0] == "NOT" and c[1][0] == "VAR"]
        positive = [c for c in conjuncts if c[0] == "VAR"]
        if len(negated) == 2 and not positive and len(conjuncts) == 2:
            return "negation"
        if len(positive) == 1 and len(negated) == 3 and len(conjuncts) == 4:
            return "exactness"
    return None


def check_comb_bank(comb_path: str, atomic_path: str, n_options: int = 6) -> list[str]:
    problems: list[str] = []
    atomic = {q["id"]: q for q in load_json(atomic_path)["questions"]}
    questions = load_json(comb_path)["questions"]
    if sorted(q["source_id"] for q in questions) != sorted(atomic):
        problems.append("hardened bank does not cover the atomic bank one to one")
    for q in questions:
        qid, tier = q["id"], q["tier"]
        source = atomic.get(q["source_id"])
        if source is None or q["source_answer"] != source["answer"]:
            problems.append(f"{qid}: source answer differs from the atomic bank")
            continue
        letters = [o["letter"] for o in q["options"]]
        want = min(n_options, 5) if tier == "Easy" else n_options
        if letters != list(LETTERS[:want]):
            problems.append(f"{qid}: letters {''.join(letters)} do not run A.. over {want} options")
        trees = [parse(o["formula"]) for o in q["options"]]
        truth = {q["source_answer"]}
        holds = {o["letter"] for o, t in zip(q["options"], trees) if evaluate(t, truth)}
        if holds != set(q["answer_set"]):
            problems.append(f"{qid}: answer set {sorted(q['answer_set'])} but {sorted(holds)} hold")
        lo, hi = TIER_ANSWER_RANGE[tier]
        if not lo <= len(q["answer_set"]) <= hi:
            problems.append(f"{qid}: {len(q['answer_set'])} answers outside {tier} range {lo}-{hi}")
        kinds = {operator_kind(t) for t in trees}
        for required in TIER_REQUIRED[tier]:
            if required not in kinds:
                problems.append(f"{qid}: {tier} question lacks a {required}")
        if len({truth_mask(t) for t in trees}) != len(trees):
            problems.append(f"{qid}: two options share a formula")
        if len({o["text"] for o in q["options"]}) != len(trees):
            problems.append(f"{qid}: two options share a text")
    return problems


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def paper_difficulty(gold: float, density: float, tokens: float, segments: float) -> float:
    return (gold - 72.0) / 54.0 + 0.1 * (density - 2.0) + math.log10(max(1.0, tokens)) - 3.17 + (segments - 100.0) / 200.0


def check_items(items_path: str, questions: dict[str, dict], features: dict[str, dict]) -> list[str]:
    """a from the tier, c = 1 / options, b from the trace features (paper's formulas).

    ``questions`` maps question id to {tier, n_options}; ``features`` maps the
    id used for calibration to {gold_score, logic_density, token_count, segment_count}.
    """
    problems = []
    items = load_json(items_path)["items"]
    if sorted(i["question_id"] for i in items) != sorted(questions):
        problems.append(f"{items_path}: items do not cover the bank one to one")
    for item in items:
        q = questions.get(item["question_id"])
        f = features.get(item["question_id"]) or features.get(item["question_id"].split("::")[0])
        if q is None or f is None:
            continue
        b = paper_difficulty(f["gold_score"], f["logic_density"], f["token_count"], f["segment_count"])
        expected = (TIER_DISCRIMINATION[q["tier"]], b, 1.0 / q["n_options"])
        have = (item["a"], item["b"], item["c"])
        if any(abs(x - y) > TOLERANCE for x, y in zip(have, expected)):
            problems.append(f"{item['item_id']}: (a, b, c) = {have}, paper gives {expected}")
    return problems


# ---------------------------------------------------------------------------
# Trace metrics
# ---------------------------------------------------------------------------


def check_scores(scores_path: str, expected_path: str) -> list[str]:
    problems = []
    expected = load_json(expected_path)
    rows = read_rows(scores_path)
    if sorted(r["question_id"] for r in rows) != sorted(expected):
        problems.append("scores do not cover the traces one to one")
    for row in rows:
        want = expected.get(row["question_id"], {})
        for name, value in want.items():
            have = row["fallacy"] if name == "fallacy" else row["metrics"].get(name)
            if have is None or abs(have - value) > TOLERANCE:
                problems.append(f"{row['question_id']}: {name} scored {have}, planted {value}")
    return problems


# ---------------------------------------------------------------------------
# Adaptive sessions
# ---------------------------------------------------------------------------

GRID = [(i - 30) * 0.2 for i in range(61)]
_density = [math.exp(-0.5 * x * x) for x in GRID]
PRIOR = [d / math.fsum(_density) for d in _density]


def p_correct(theta: float, a: float, b: float, c: float) -> float:
    z = -a * (theta - b)
    logistic = 0.0 if z > 700 else 1.0 / (1.0 + math.exp(z))
    return c + (1.0 - c) * logistic


def information(theta: float, item: dict) -> float:
    p = p_correct(theta, item["a"], item["b"], item["c"])
    return item["a"] ** 2 * p * (1.0 - p)


def eap(posterior: list[float]) -> tuple[float, float]:
    theta = math.fsum(x * w for x, w in zip(GRID, posterior))
    variance = math.fsum(w * (x - theta) ** 2 for x, w in zip(GRID, posterior))
    return theta, math.sqrt(max(variance, 0.0))


def replay_session(steps: list[dict], bank: list[dict], max_items: int, se_target: float) -> tuple[list[str], float, float]:
    """Recompute one subset's session from its logged responses.

    Every pick must carry the highest information among eligible items at
    the estimate before it (ties to the smallest id), every logged estimate
    must equal the recomputed posterior mean and deviation, and the session
    must stop exactly when the rule says.
    """
    problems = []
    by_id = {item["item_id"]: item for item in bank}
    posterior = list(PRIOR)
    theta, se = eap(posterior)
    used: set[str] = set()
    administered = 0
    for row in steps:
        if se < se_target or administered >= max_items or len(used) == len(bank):
            problems.append(f"step {row['step']}: session should have stopped")
            break
        infos = {item_id: information(theta, item) for item_id, item in by_id.items() if item_id not in used}
        best = min(infos, key=lambda item_id: (-infos[item_id], item_id))
        pick = row["item_id"]
        if pick not in infos or infos[pick] < infos[best] * (1 - TOLERANCE):
            problems.append(f"step {row['step']}: picked {pick}, most informative is {best}")
        used.add(pick)
        if row.get("skipped"):
            continue
        item = by_id[pick]
        p = [p_correct(x, item["a"], item["b"], item["c"]) for x in GRID]
        updated = [w * (pi if row["response"] else 1.0 - pi) for w, pi in zip(posterior, p)]
        total = math.fsum(updated)
        posterior = [w / total for w in updated]
        administered += 1
        theta, se = eap(posterior)
        if abs(theta - row["theta_hat"]) > TOLERANCE or abs(se - row["se"]) > TOLERANCE:
            problems.append(f"step {row['step']}: logged ({row['theta_hat']}, {row['se']}), recomputed ({theta}, {se})")
    else:
        if not (se < se_target or administered >= max_items or len(used) == len(bank)):
            problems.append("session stopped before its rule allows")
    return problems, theta, se


def check_cat_run(log_path: str, report_path: str, banks: dict[str, list[dict]],
                  max_items: int = 60, se_target: float = 0.3) -> list[str]:
    """``banks`` maps the log's subset label ("base", "comb") to item dicts."""
    problems = []
    rows = read_rows(log_path)
    report = load_json(report_path)
    for label, key in (("base", "base"), ("comb", "comb")):
        steps = [r for r in rows if r.get("kind") == "cat_step" and r["subset"] == label]
        found, theta, se = replay_session(steps, banks[label], max_items, se_target)
        problems += [f"{log_path} {label} {p}" for p in found]
        logged = report["dual"][key]
        if abs(logged["theta_hat"] - theta) > TOLERANCE or abs(logged["se"] - se) > TOLERANCE:
            problems.append(f"{report_path}: {label} theta_hat {logged['theta_hat']} vs recomputed {theta}")
        responses = [r for r in rows if r.get("kind") == "response" and r["subset"] == label]
        if [r["question_id"] for r in responses] != [by_question(s["item_id"]) for s in steps]:
            problems.append(f"{log_path} {label}: response rows do not follow the picks")
    return problems


def by_question(item_id: str) -> str:
    return item_id.split(":", 1)[1]


# ---------------------------------------------------------------------------
# Live endpoint runs
# ---------------------------------------------------------------------------


def check_live(rows: list[dict], script: dict) -> list[str]:
    """Every administration succeeded and scored as the stub intended."""
    problems = []
    for row in rows:
        if row.get("kind") != "response":
            continue
        qid = row["question_id"].split("::")[0]
        kind = "comb" if row["subset"] == "comb" else "atomic"
        if row["transport_status"] != "ok":
            problems.append(f"{row['question_id']} ({row['subset']}): {row['transport_status']}")
        elif row["exact"] != script["replies"][f"{qid}|{kind}"]["correct"]:
            problems.append(f"{row['question_id']} ({row['subset']}): exact={row['exact']} but the stub meant otherwise")
    return problems
