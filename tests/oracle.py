"""Reference semantics for formula trees, kept as the oracle for truth masks.

``combicat.logic`` decides a formula's meaning by its 16-bit truth mask and
names a question's valuation by ``truth_row``. This module keeps the plain
recursive evaluator the masks replaced, over an explicit set of true
statements, and derives each row's valuation on its own, so tests can check
the fast path against standard propositional semantics.
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
