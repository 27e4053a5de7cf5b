"""Command-line pipeline: synthesize | score-traces | calibrate | evaluate | report.

Every subcommand is deterministic given its inputs, flags, and seed. Flags
are the only settings: each default is written once, in ``build_parser``, and
the resolved flags are hashed into every emitted report so a run can be
reproduced from its artifacts alone. Each input is checked where it is read (a
combinatorial bank must pass ``verify``), and ``main`` reports every input
error as one ``error:`` line with exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
from typing import Any, Mapping, Sequence

from . import bankio
from .bankio import CalibratedItem
from .harness import (
    EndpointConfig,
    EndpointResponder,
    EvalBanks,
    MemorizationRespondent,
    MissingApiKeyError,
    PromptTask,
    Responder,
    ResponseRecord,
    RunSettings,
    SimulatedRespondent,
    SubsetResult,
    aggregate_log_records,
    build_task,
    log_dual,
    log_entry,
    run_benchmark,
)
from .irt import (
    BASE_SUBSET,
    COMBINATORIAL_SUBSET,
    DEFAULT_MAX_ITEMS,
    DEFAULT_SE_TARGET,
    CatSession,
    DualReport,
    calibrate_difficulty,
    guessing_for_options,
)
from .rng import PortableRng, derive_seed
from .scoring import (
    SCORING_MODEL,
    CorpusStats,
    extract_metrics,
    fallacy_penalty,
    gold_score,
    load_lexicons,
    normalize_against,
    stratify,
    z_normalize,
)
from .synthesis import (
    OPTION_COUNTS,
    TIERS,
    AtomicQuestion,
    CombinatorialQuestion,
    InfeasibleTierError,
    apply_nota,
    finite,
    shuffle_options,
    synthesize_bank,
    tier_row,
    typed,
)

log = logging.getLogger(__name__)


def _config_hash(resolved: Mapping[str, Any]) -> str:
    canonical = json.dumps(resolved, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def _finite_flag(flag: str, what: str, text: str) -> float:
    """``text`` as a float, which must be finite; otherwise an error that names ``flag``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{flag} {what} must be a finite number, not {text!r}")
    return value


def _parse_tier_split(text: str) -> dict[str, float]:
    """The weight of each tier ``--tier-split`` names: each finite and at least 0, with a finite, positive sum."""
    split: dict[str, float] = {}
    for part in text.split(","):
        tier, _, weight = part.partition(":")
        tier = tier.strip()
        if tier not in TIERS:
            raise ValueError(f"--tier-split names an unknown tier {tier!r}")
        if tier in split:
            raise ValueError(f"--tier-split names {tier} twice")
        split[tier] = _finite_flag("--tier-split", f"weight of {tier}", weight)
        if split[tier] < 0:
            raise ValueError(f"--tier-split weight of {tier} must be at least 0, not {weight!r}")
    if not 0 < sum(split.values()) < math.inf:
        raise ValueError("--tier-split weights must have a finite, positive sum")
    return split


def cmd_synthesize(args: argparse.Namespace) -> int:
    if args.n_options not in OPTION_COUNTS:
        raise ValueError(f"--m must be from {OPTION_COUNTS[0]} to {OPTION_COUNTS[-1]}, not {args.n_options}")
    split = _parse_tier_split(args.tier_split)
    questions = bankio.load_atomic_bank(args.bank)
    names = sorted(split)
    weights = [split[name] for name in names]

    def tier_for(question: AtomicQuestion) -> str:
        rng = PortableRng(derive_seed(args.seed, question.id, "tier-assignment"))
        return names[rng.weighted_index(weights)]

    combinatorial, summary = synthesize_bank(questions, args.seed, tier_for, n_options=args.n_options)
    bankio.save_comb_bank(args.out, combinatorial)

    print(f"synthesized {summary.total} questions -> {args.out}")
    for name in TIERS:
        count = summary.tier_counts.get(name, 0)
        if count:
            print(f"  {name:<7} {count:>6}  ({100.0 * count / summary.total:.1f}%)")
    print(
        f"  regenerations {summary.regenerations} "
        f"(rate {100.0 * summary.regeneration_rate:.2f}%)"
    )
    return 0


# ---------------------------------------------------------------------------
# score-traces
# ---------------------------------------------------------------------------


def cmd_score_traces(args: argparse.Namespace) -> int:
    """Score each trace: its metrics, z-scores, fallacy penalty, gold score and tier.

    A trace's markers are found through one index of it, which
    ``extract_metrics`` builds and ``fallacy_penalty`` reads.
    """
    lexicons = load_lexicons()

    traces = bankio.load_traces(args.traces)
    metrics, penalties = [], []
    for trace in traces:  # back to back, so the penalty reads the index extract_metrics built
        metrics.append(extract_metrics(trace, lexicons))
        penalties.append(fallacy_penalty(trace, lexicons))

    if args.stats:
        stats = bankio.load_object(args.stats, _frozen_stats, versioned=True)
        z_rows = [normalize_against(stats, m) for m in metrics]
    else:
        z_rows, stats = z_normalize(metrics)

    rows = []
    for trace, metric, z, penalty_score in zip(traces, metrics, z_rows, penalties):
        score = gold_score(z, penalty_score)
        rows.append(
            {
                "question_id": trace.question_id,
                "metrics": metric,
                "z": z,
                "fallacy": penalty_score,
                "gold_score": score,
                "penalty": penalty_score,
                "tier": stratify(score),
            }
        )
    bankio.write_jsonl(args.out, rows)

    resolved = {
        "command": "score-traces",
        "locale": "both",  # every trace is scored against both lexicons; the key stays in the hashed config
        "scoring": SCORING_MODEL,
        "frozen_stats": bool(args.stats),
        "traces": os.path.basename(args.traces),
    }
    stats_payload = {
        "stats": stats.to_dict(),
        "scoring": SCORING_MODEL,
        "config_hash": _config_hash(resolved),
    }
    # The stats file is part of the contract: without it, later runs cannot
    # score new traces against this corpus. Default next to the scores; stats
    # read with --stats are written again only to an explicit --stats-out.
    if args.stats_out or not args.stats:
        bankio.save_json(args.stats_out or args.out + ".stats.json", stats_payload)

    tiers = [row["tier"] for row in rows]
    print(f"scored {len(rows)} traces -> {args.out}")
    for name in TIERS:
        count = tiers.count(name)
        if count:
            print(f"  {name:<7} {count:>6}")
    return 0


def _frozen_stats(data: Mapping[str, Any]) -> CorpusStats:
    """The corpus stats of a stats file, which must have been scored under ``SCORING_MODEL``."""
    stats = CorpusStats.from_dict(typed("stats", data["stats"], dict, "an object"))
    if json.dumps(data["scoring"], sort_keys=True) != json.dumps(SCORING_MODEL, sort_keys=True):
        raise ValueError("scoring is not the scoring model of this version")
    return stats


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args: argparse.Namespace) -> int:
    questions = bankio.load_bank(args.bank)
    if not questions:
        raise ValueError(f"{args.bank}: bank holds no questions")
    scores = bankio.question_rows(args.scores) if args.scores else {}
    combinatorial = isinstance(questions[0], CombinatorialQuestion)
    subset = COMBINATORIAL_SUBSET if combinatorial else BASE_SUBSET

    items: list[CalibratedItem] = []
    for i, question in enumerate(questions):
        # A combinatorial question may be scored under the id of the atomic question it came from.
        keys = (question.id, question.source_id) if combinatorial else (question.id,)
        inline = f"{args.bank}: record {i}", question.extras
        where, row = next((scores[key] for key in keys if key in scores), inline)
        # An atomic question takes the row's tier, or failing that its bank record's, read where it is written.
        tier_at, tier_row = (where, row) if "tier" in row else inline
        tier = question.tier if combinatorial else bankio.parse_at(tier_at, _tier_of, tier_row)
        item = bankio.parse_at(where, functools.partial(_calibrated_item, question, subset, tier), row)
        if item is None:
            log.warning("question %s: missing calibration features, skipped", question.id)
        else:
            items.append(item)

    if not items:
        raise ValueError("no questions could be calibrated")

    bankio.save_item_bank(args.out, items)
    print(f"calibrated {len(items)} items -> {args.out} ({len(questions) - len(items)} skipped)")
    return 0


_FEATURES = ("gold_score", "logic_density", "token_count", "segment_count")


def _tier_of(record: Mapping[str, Any]) -> str | None:
    """The tier a score row or bank record names, or ``None`` if it names none; a ladder tier's name, not coerced.

    An unknown tier fails here, where it was read.
    """
    if "tier" not in record:
        return None
    return tier_row(typed("tier", record["tier"], str, "a string")).name


def _calibrated_item(
    question: AtomicQuestion | CombinatorialQuestion, subset: str, tier: str | None, row: Mapping[str, Any]
) -> CalibratedItem | None:
    """``question`` of ``tier`` calibrated from its score row or inline record, or ``None`` if a feature or the
    tier is missing.

    ``gold_score`` sits in the row, the other features in its ``metrics`` object (an
    inline record holds them itself). A feature that is present must be a finite
    number; none is coerced.
    """
    metrics = typed("metrics", row.get("metrics", row), dict, "an object")
    features = [finite(key, source[key]) for key, source in zip(_FEATURES, (row, metrics, metrics, metrics))
                if key in source]
    if len(features) < len(_FEATURES) or tier is None:
        return None
    n_options = len(question.options)
    return CalibratedItem(
        item_id=f"{subset}:{question.id}",
        question_id=question.id,
        subset=subset,
        tier=tier,
        a=tier_row(tier).discrimination,
        b=calibrate_difficulty(*features),
        c=guessing_for_options(n_options),
        n_options=n_options,
    )


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _parse_simulator(spec: str) -> dict[str, float] | str:
    """``--simulator``'s responder: ``memorization``, or a finite ability per subset (one for both)."""
    if spec == "memorization":
        return "memorization"
    if spec.startswith("3pl:"):
        parts = spec[len("3pl:") :].split(",")
        if len(parts) in (1, 2):
            thetas = [_finite_flag("--simulator", "ability", part) for part in parts]
            return {BASE_SUBSET: thetas[0], COMBINATORIAL_SUBSET: thetas[-1]}
    raise ValueError(f"cannot parse --simulator spec {spec!r} (use '3pl:<base>,<comb>' or 'memorization')")


def _parse_baseline(text: str) -> list[str]:
    """The baselines ``--baseline`` names: ``nota``, ``shuffle`` or both, each once, spaces around a name ignored."""
    names = [name.strip() for name in text.split(",")] if text else []
    if not set(names) <= {"nota", "shuffle"} or len(set(names)) < len(names):
        raise ValueError(f"--baseline must name nota, shuffle or both, each once, not {text!r}")
    return names


def _join_params(
    questions: Sequence[Any], item_bank: list[CalibratedItem] | None
) -> list[PromptTask]:
    by_question = {item.question_id: item.item_params() for item in item_bank or []}
    return [build_task(q, by_question.get(q.id)) for q in questions]


def cmd_evaluate(args: argparse.Namespace) -> int:
    if (args.simulator is None) == (args.endpoint is None):
        raise ValueError("provide exactly one of --simulator or --endpoint")
    if args.baseline and args.mode != "static":
        raise ValueError("--baseline applies to --mode static only")
    if not (args.base_bank or args.comb_bank):
        raise ValueError("provide --base-bank, --comb-bank or both")
    if args.baseline and not args.base_bank:
        raise ValueError("--baseline needs --base-bank: a baseline is a variant of the base bank")
    if args.max_items < 1:
        raise ValueError(f"--max-items must be at least 1, not {args.max_items}")
    baselines = _parse_baseline(args.baseline)
    prior_se = CatSession.start().estimate.se  # a target at or above it ends each session before its first item
    if not 0 <= args.se_target < prior_se:
        raise ValueError(f"--se-target must be at least 0 and below the prior's SE {prior_se}, not {args.se_target}")

    base_questions = bankio.load_atomic_bank(args.base_bank) if args.base_bank else []
    comb_questions = bankio.load_comb_bank(args.comb_bank) if args.comb_bank else []
    for path, questions in ((args.base_bank, base_questions), (args.comb_bank, comb_questions)):
        if path and not questions:
            raise ValueError(f"{path}: bank holds no questions")
    base_items = bankio.load_item_bank(args.base_items) if args.base_items else None
    comb_items = bankio.load_item_bank(args.comb_items) if args.comb_items else None

    banks = EvalBanks(
        base=_join_params(base_questions, base_items),
        comb=_join_params(comb_questions, comb_items),
    )
    for name in baselines:
        if name == "nota":
            variants = [apply_nota(q) for q in base_questions]
        else:
            variants = [shuffle_options(q, derive_seed(args.seed, q.id, "shuffle")) for q in base_questions]
        banks.baselines[name] = _join_params(variants, base_items)

    responder: Responder
    if args.simulator is not None:
        parsed = _parse_simulator(args.simulator)
        responder_seed = derive_seed(args.seed, "responder", args.simulator)
        if parsed == "memorization":
            responder = MemorizationRespondent(seed=responder_seed)
        else:
            responder = SimulatedRespondent(parsed, seed=responder_seed)
    else:
        responder = EndpointResponder(bankio.load_object(args.endpoint, EndpointConfig.from_dict))

    resolved = {
        "command": "evaluate",
        "seed": args.seed,
        "mode": args.mode,
        "max_items": args.max_items,
        "se_target": args.se_target,
        "simulator": args.simulator,
        "endpoint": args.endpoint,
        "baseline": ",".join(baselines),
        "base_bank": os.path.basename(args.base_bank or ""),
        "comb_bank": os.path.basename(args.comb_bank or ""),
    }
    settings = RunSettings(
        seed=args.seed,
        max_items=args.max_items,
        se_target=args.se_target,
        config_hash=_config_hash(resolved),
    )

    log_path = os.path.join(args.out, "run.jsonl")
    report_path = os.path.join(args.out, "report.json")
    try:
        report = run_benchmark(responder, banks, log_path, mode=args.mode, settings=settings)
    except MissingApiKeyError as exc:
        raise MissingApiKeyError(f"{args.endpoint}: {exc}") from None
    bankio.save_json(report_path, report.to_record())
    print(f"mode {report.mode}  seed {report.seed}  config {report.config_hash}")
    _print_run(report.subsets, report.dual)
    print(f"log: {log_path}")
    print(f"report: {report_path}")
    return 0


def _print_run(subsets: Mapping[str, SubsetResult], dual: DualReport | None) -> None:
    """The numbers of a run that ``evaluate`` and ``report`` print: each subset in log order, then a CAT
    run's estimates and their gap."""
    for label, result in subsets.items():
        print(
            f"{label:<8} n={result.n:<5} accuracy={result.accuracy:.4f} f1={result.mean_f1:.4f} "
            f"parse_failures={result.parse_failures} transport_failures={result.transport_failures}"
        )
    if dual is not None:
        for label, estimate in (("base", dual.base), ("comb", dual.comb)):
            print(f"{label:<8} theta={estimate.theta_hat:+.3f} se={estimate.se:.3f} n={estimate.n_administered}")
        print(f"delta_theta {dual.delta_theta:+.3f}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    entries = [bankio.parse_at(f"{args.log}:{line}", log_entry, row) for line, row in bankio.read_jsonl(args.log)]
    if not entries:
        print("no records")
    responses = [entry for entry in entries if isinstance(entry, ResponseRecord)]
    steps = [entry for entry in entries if isinstance(entry, tuple)]
    aggregates, dual = aggregate_log_records(responses), log_dual(steps)
    if responses and len(responses) <= 32:
        print("per-item results:")
        for record in responses:
            print(
                f"  {record.question_id:<40} subset={record.subset:<8} "
                f"exact={str(record.exact):<5} f1={record.f1:.3f}"
            )
    cat = len(responses) < len(entries)  # a cat_step row, scored or skipped
    _print_run(aggregates, dual if cat else None)

    if args.report:
        # The report holds exactly what its log gives; mode, seed and config_hash are not in the log.
        stored = bankio.load_object(args.report, dict, versioned=True)
        logged = {"subsets": {label: result.to_record() for label, result in aggregates.items()}}
        if cat or "dual" in stored:
            logged["dual"] = dual.to_record()
        mismatches = _mismatches("", {key: stored[key] for key in logged if key in stored}, logged)
        if mismatches:
            raise ValueError(f"{args.report}: replay mismatch: {'; '.join(mismatches)}")
        print("replay check: ok")
    return 0


def _mismatches(path: str, report: Any, log: Any) -> list[str]:
    """Each place where ``report`` differs from ``log``, the record its log gives, named by dotted path
    below ``path``: a key that only one side holds, or two values that are not equal. A number equals a
    number of the same value (30 and 30.0), never a boolean. A subset's numbers are named by its label
    alone, as ``evaluate`` prints them: ``base.accuracy``, but ``dual.base.theta_hat``."""
    if not (isinstance(report, dict) and isinstance(log, dict)):
        if report == log and isinstance(report, bool) == isinstance(log, bool):
            return []
        return [f"{path}: report {report!r} vs log {log!r}"]
    problems = []
    for key in [*log, *(key for key in report if key not in log)]:
        where = f"{path}.{key}" if path not in ("", "subsets") else key
        if key in report and key in log:
            problems += _mismatches(where, report[key], log[key])
        else:
            problems.append(f"{where} missing from {'report' if key in log else 'log'}")
    return problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combicat",
        description="Combinatorial hardening of multiple-choice banks with adaptive evaluation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag is accepted only as spelled: by default argparse takes any unique prefix of one.
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("synthesize", help="transform an atomic bank into combinatorial questions")
    p.add_argument("--bank", required=True, help="atomic question bank (JSON)")
    p.add_argument("--out", required=True, help="output combinatorial bank (JSON)")
    p.add_argument("--tier-split", dest="tier_split", default="Hard:1", help="e.g. Easy:20,Medium:40,Hard:30,Expert:10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", dest="n_options", type=int, default=6, help="options per combinatorial question (5-8)")
    p.set_defaults(func=cmd_synthesize)

    p = command("score-traces", help="extract metrics and difficulty scores from traces")
    p.add_argument("--traces", required=True, help="JSONL of {question_id, text}")
    p.add_argument("--out", required=True, help="output scores (JSONL)")
    p.add_argument("--stats-out", dest="stats_out", help="output corpus stats (JSON)")
    p.add_argument("--stats", help="frozen corpus stats to score against (JSON)")
    p.set_defaults(func=cmd_score_traces)

    p = command("calibrate", help="derive 3PL item parameters from scored questions")
    p.add_argument("--bank", required=True, help="question bank (atomic or combinatorial)")
    p.add_argument("--scores", help="score rows from score-traces (JSONL)")
    p.add_argument("--out", required=True, help="output item bank (JSON)")
    p.set_defaults(func=cmd_calibrate)

    p = command("evaluate", help="run a responder over the banks")
    p.add_argument("--base-bank", dest="base_bank", help="atomic bank (JSON)")
    p.add_argument("--comb-bank", dest="comb_bank", help="combinatorial bank (JSON)")
    p.add_argument("--base-items", dest="base_items", help="calibrated items for the base bank")
    p.add_argument("--comb-items", dest="comb_items", help="calibrated items for the combinatorial bank")
    p.add_argument("--mode", choices=["static", "cat"], default="static")
    p.add_argument("--simulator", help="'3pl:<base_theta>,<comb_theta>' or 'memorization'")
    p.add_argument("--endpoint", help="endpoint config JSON for a live model")
    p.add_argument("--baseline", default="", help="comma list of static baselines: nota,shuffle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-items", dest="max_items", type=int, default=DEFAULT_MAX_ITEMS)
    p.add_argument("--se-target", dest="se_target", type=float, default=DEFAULT_SE_TARGET)
    p.add_argument("--out", required=True, help="output directory for run.jsonl and report.json")
    p.set_defaults(func=cmd_evaluate)

    p = command("report", help="summarize a run log and verify its report")
    p.add_argument("--log", required=True, help="run log (JSONL)")
    p.add_argument("--report", help="report.json to cross-check against the log")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, InfeasibleTierError, MissingApiKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
