"""Reference implementations that tests check the program's code against.

``combicat.logic`` decides a formula's meaning by its 16-bit truth mask and
names a question's valuation by ``truth_row``. This module keeps the plain
recursive evaluator the masks replaced, over an explicit set of true
statements, and derives each row's valuation on its own, so tests can check
the fast path against standard propositional semantics.

``combicat.scoring`` counts in-order marker chains of any length with one
stage matcher; the two-stage and three-stage matchers it replaced are kept
here.
"""

from combicat.logic import STATEMENTS, And, Not, Or, Var


def reference_evaluate(formula, true_statements) -> bool:
    """Standard propositional semantics by direct recursion over the tree."""
    if isinstance(formula, Var):
        return formula.index in true_statements
    if isinstance(formula, Not):
        return not reference_evaluate(formula.child, true_statements)
    if isinstance(formula, And):
        return reference_evaluate(formula.left, true_statements) and reference_evaluate(formula.right, true_statements)
    if isinstance(formula, Or):
        return reference_evaluate(formula.left, true_statements) or reference_evaluate(formula.right, true_statements)
    raise TypeError(f"not a formula node: {formula!r}")


def row_statements(row: int) -> frozenset:
    """Statements true in row ``row`` of the 16-row table, lexicographic in (I, II, III, IV)."""
    if not 0 <= row < 16:
        raise ValueError(f"row index {row} out of range")
    bits = format(row, "04b")  # the first digit is statement I
    return frozenset(s for s, bit in zip(STATEMENTS, bits) if bit == "1")


def reference_table(formula) -> tuple[bool, ...]:
    """Values over all 16 rows, in row order."""
    return tuple(reference_evaluate(formula, row_statements(row)) for row in range(16))


def reference_ordered_pairs(first: list[int], second: list[int]) -> int:
    """Non-overlapping (first, later second) pairs, scanned left to right."""
    count = 0
    pending = 0
    events = sorted([(pos, 0) for pos in first] + [(pos, 1) for pos in second])
    for _, kind in events:
        if kind == 0:
            pending += 1
        elif pending > 0:
            pending -= 1
            count += 1
    return count


def reference_ordered_triples(first: list[int], second: list[int], third: list[int]) -> int:
    """Non-overlapping in-order triples, greedy left-to-right matching."""
    count = 0
    stage_one = 0
    stage_two = 0
    events = sorted([(p, 0) for p in first] + [(p, 1) for p in second] + [(p, 2) for p in third])
    for _, kind in events:
        if kind == 0:
            stage_one += 1
        elif kind == 1 and stage_one > 0:
            stage_one -= 1
            stage_two += 1
        elif kind == 2 and stage_two > 0:
            stage_two -= 1
            count += 1
    return count
