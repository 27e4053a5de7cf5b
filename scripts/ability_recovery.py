#!/usr/bin/env python3
"""Ability-recovery experiment for the adaptive engine.

Simulates respondents at fixed true abilities against fresh 200-item banks and
reports coverage (estimate within twice its standard error of the truth), mean
absolute error, and administered-item quantiles per ability level.
"""

from __future__ import annotations

import argparse
import sys
from statistics import fmean, median, quantiles

from combicat.irt import CatSession, ItemParams, eap_update, probability_3pl, select_next
from combicat.rng import PortableRng, derive_seed


def make_bank(seed: int, n_items: int) -> list[ItemParams]:
    rng = PortableRng(seed)
    discriminations = (1.6, 2.0)
    return [
        ItemParams(
            f"i{i:03d}",
            a=discriminations[i % 2],
            b=-3.0 + 6.0 * rng.random(),
            c=1.0 / 6.0,
        )
        for i in range(n_items)
    ]


def run(args: argparse.Namespace) -> int:
    print(f"{'theta*':>7} {'coverage':>9} {'MAE':>7} {'items p25/p50/p75':>18}")
    overall_covered = 0
    overall_errors = []
    total = 0
    for theta_star in args.thetas:
        covered = 0
        errors = []
        counts = []
        for s in range(args.sessions):
            seed = derive_seed(args.seed, f"recovery:{theta_star}:{s}")
            bank = make_bank(seed, args.n_items)
            draw = PortableRng(derive_seed(seed, "responses"))
            session = CatSession.start(max_items=args.max_items, se_target=args.se_target)
            while (item := select_next(session, bank)) is not None:
                eap_update(session, item, draw.random() < probability_3pl(theta_star, item))
            estimate = session.estimate
            error = abs(estimate.theta_hat - theta_star)
            errors.append(error)
            covered += error <= 2.0 * estimate.se
            counts.append(estimate.n_administered)
        q1, q2, q3 = quantiles(counts, n=4)
        print(
            f"{theta_star:>7.2f} {covered / args.sessions:>9.3f} {fmean(errors):>7.3f} "
            f"{q1:>7.0f}/{median(counts):.0f}/{q3:.0f}"
        )
        overall_covered += covered
        overall_errors.extend(errors)
        total += args.sessions
    print(f"\noverall coverage {overall_covered / total:.3f}, MAE {fmean(overall_errors):.3f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--thetas", type=float, nargs="+", default=[-2.0, -1.0, 0.0, 1.0, 2.0])
    parser.add_argument("--sessions", type=int, default=200, help="sessions per ability level")
    parser.add_argument("--n-items", type=int, default=200)
    parser.add_argument("--max-items", type=int, default=60)
    parser.add_argument("--se-target", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=1234)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
