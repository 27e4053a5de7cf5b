"""Reference semantics for formula trees, kept as the oracle for truth masks.

``combicat.logic`` decides a formula's meaning by its 16-bit truth mask. This
module keeps the plain recursive evaluator the masks replaced, so tests can
check the fast path against standard propositional semantics.
"""

from combicat.logic import And, Assignment, Not, Or, Var


def reference_evaluate(formula, assignment: Assignment) -> bool:
    """Standard propositional semantics by direct recursion over the tree."""
    if isinstance(formula, Var):
        return assignment.value(formula.index)
    if isinstance(formula, Not):
        return not reference_evaluate(formula.child, assignment)
    if isinstance(formula, And):
        return reference_evaluate(formula.left, assignment) and reference_evaluate(formula.right, assignment)
    if isinstance(formula, Or):
        return reference_evaluate(formula.left, assignment) or reference_evaluate(formula.right, assignment)
    raise TypeError(f"not a formula node: {formula!r}")


def reference_table(formula) -> tuple[bool, ...]:
    """Values over all 16 assignments, in ``Assignment.from_row_index`` order."""
    return tuple(reference_evaluate(formula, Assignment.from_row_index(row)) for row in range(16))
