"""Propositional formulas over the four statement variables of a multi-select item.

Each source question contributes four statements labelled I..IV. Formulas are
immutable trees built from Var/Not/And/Or nodes. A formula's meaning is its
16-bit truth mask: bit ``r`` holds its value in row ``r`` of the truth table,
where statement I is bit 3 of ``r`` and statement IV is bit 0. A question's
valuation, with exactly the answered statement true, is the single row
``truth_row(answer)``. Evaluation is a bit test on the mask, and two formulas
are duplicates exactly when their masks are equal. The 21 option shapes
(exactness, disjunction, negation, compound negation, plus the universal
distractor) are one table, ``SHAPE_LIST``, built at import, and a formula's
shape is found by a lookup from mask to row: the shapes have pairwise
distinct masks. Each node derives its mask and its prefix text (the on-disk
form) from its children when it is built, so a tree shared through the pools
or the parse cache is walked once, not per use.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import combinations
from typing import Any, Iterable, Union


class Statement(enum.IntEnum):
    """The four statement labels, totally ordered I < II < III < IV."""

    I = 1
    II = 2
    III = 3
    IV = 4


STATEMENTS: tuple[Statement, ...] = tuple(Statement)


def statement_from_label(label: str) -> Statement:
    try:
        return Statement[label]
    except KeyError:
        raise ValueError(f"unknown statement label {label!r}") from None


# Bit r of a variable's mask is its value in row r of the lexicographic
# (I, II, III, IV) enumeration, so statement I is the most significant position.
_VAR_MASKS = {Statement.I: 0xFF00, Statement.II: 0xF0F0, Statement.III: 0xCCCC, Statement.IV: 0xAAAA}
_ALL_ROWS = 0xFFFF


def _derived() -> Any:
    """A node field set in ``__post_init__``: left out of ``__init__``, ``repr``, ``==`` and ``hash``."""
    return field(init=False, repr=False, compare=False)


def _derive(node: "Formula", truth_mask: int, serialized: str) -> None:
    """Set a node's 16-bit truth table and its compact prefix text, e.g.
    ``AND(VAR(I),NOT(VAR(II)))``, which ``parse_formula`` reads back."""
    object.__setattr__(node, "mask", truth_mask)
    object.__setattr__(node, "serialized", serialized)


@dataclass(frozen=True, slots=True)
class Var:
    index: Statement
    mask: int = _derived()
    serialized: str = _derived()

    def __post_init__(self) -> None:
        _derive(self, _VAR_MASKS[self.index], f"VAR({self.index.name})")


@dataclass(frozen=True, slots=True)
class Not:
    child: "Formula"
    mask: int = _derived()
    serialized: str = _derived()

    def __post_init__(self) -> None:
        _derive(self, _ALL_ROWS ^ self.child.mask, f"NOT({self.child.serialized})")


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"
    mask: int = _derived()
    serialized: str = _derived()

    def __post_init__(self) -> None:
        _derive(self, self.left.mask & self.right.mask, f"AND({self.left.serialized},{self.right.serialized})")


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"
    mask: int = _derived()
    serialized: str = _derived()

    def __post_init__(self) -> None:
        _derive(self, self.left.mask | self.right.mask, f"OR({self.left.serialized},{self.right.serialized})")


Formula = Union[Var, Not, And, Or]


def truth_row(answer: Statement) -> int:
    """The truth-table row in which exactly the answered statement is true."""
    return 1 << (4 - answer)


# ---------------------------------------------------------------------------
# Option shapes
# ---------------------------------------------------------------------------


class PatternKind(enum.Enum):
    EXACTNESS = "exactness"
    DISJUNCTION = "disjunction"
    NEGATION = "negation"
    COMPOUND_NEGATION = "compound_negation"
    UNIVERSAL_NONE = "universal_none"


@dataclass(frozen=True, slots=True)
class Shape:
    """One option shape: its kind, the statements its template names in
    ascending order, its canonical formula, and the kinds a tier may require
    that it presents (a compound negation is a negation too; the universal
    distractor presents none)."""

    kind: PatternKind
    statements: tuple[Statement, ...]
    formula: Formula
    presents: tuple[PatternKind, ...]


def _and_not(node: Formula, statements: Iterable[Statement]) -> Formula:
    """``node`` conjoined with the negation of each statement in turn."""
    for s in statements:
        node = And(node, Not(Var(s)))
    return node


def _shape_list() -> tuple[Shape, ...]:
    k = PatternKind
    pairs = list(combinations(STATEMENTS, 2))
    return (
        *(Shape(k.EXACTNESS, (s,), _and_not(Var(s), (o for o in STATEMENTS if o != s)), (k.EXACTNESS,))
          for s in STATEMENTS),
        *(Shape(k.DISJUNCTION, (a, b), Or(Var(a), Var(b)), (k.DISJUNCTION,)) for a, b in pairs),
        *(Shape(k.NEGATION, (s,), Not(Var(s)), (k.NEGATION,)) for s in STATEMENTS),
        *(Shape(k.COMPOUND_NEGATION, (a, b), And(Not(Var(a)), Not(Var(b))), (k.COMPOUND_NEGATION, k.NEGATION))
          for a, b in pairs),
        Shape(k.UNIVERSAL_NONE, (), _and_not(Not(Var(Statement.I)), STATEMENTS[1:]), ()),
    )


SHAPE_LIST: tuple[Shape, ...] = _shape_list()
"""Every shape in canonical order: exactness, disjunction, negation and compound
negation, each over its statements in ascending order, then the universal distractor."""

SHAPES: dict[int, Shape] = {shape.formula.mask: shape for shape in SHAPE_LIST}


def classify(formula: Formula) -> Shape | None:
    """The shape of a formula, or None for a formula of no shape.

    Recognition is up to logical equivalence: any formula with the truth
    table of a shape classifies as that shape, so reordered conjuncts and De
    Morgan forms such as ``NOT(OR(VAR(I),VAR(II)))`` (the compound negation of
    I and II) are recognized too.
    """
    return SHAPES.get(formula.mask)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class FormulaSyntaxError(ValueError):
    """Raised when a serialized formula cannot be parsed."""


_TOKEN_RE = re.compile(r"[A-Z]+|[(),]")


@lru_cache(maxsize=1024)  # nodes are frozen, so equal texts can share one tree
def parse_formula(text: str) -> Formula:
    """The formula whose ``serialized`` text this is; round-trip stable."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise FormulaSyntaxError(f"unexpected characters in {text!r}")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError("unexpected end of input")
        token = tokens[pos]
        if expected is not None and token != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {token!r}")
        pos += 1
        return token

    def parse_node() -> Formula:
        head = take()
        take("(")
        if head == "VAR":
            label = take()
            node: Formula = Var(statement_from_label(label))
        elif head == "NOT":
            node = Not(parse_node())
        elif head in ("AND", "OR"):
            left = parse_node()
            take(",")
            right = parse_node()
            node = And(left, right) if head == "AND" else Or(left, right)
        else:
            raise FormulaSyntaxError(f"unknown operator {head!r}")
        take(")")
        return node

    result = parse_node()
    if peek() is not None:
        raise FormulaSyntaxError(f"trailing tokens in {text!r}")
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def templates() -> dict[str, dict[str, str]]:
    """Option wording per locale, loaded once from ``data/render_templates.json``."""
    return json.loads(resources.files("combicat.data").joinpath("render_templates.json").read_text("utf-8"))


@lru_cache(maxsize=None)
def _shape_texts(locale: str) -> dict[int, str]:
    """The option text of every shape in ``locale``, keyed by its truth mask."""
    tables = templates()
    if locale not in tables:
        raise ValueError(f"unknown locale {locale!r}")
    table = tables[locale]
    texts = {}
    for shape in SHAPE_LIST:
        text = table[shape.kind.value]
        for placeholder, statement in zip(("{i}", "{j}"), shape.statements):
            text = text.replace(placeholder, statement.name)
        texts[shape.formula.mask] = text
    return texts


def render(formula: Formula, locale: str = "en") -> str:
    """Option text: the template of the formula's shape; a formula of no shape has none (``KeyError``).

    Template wording per locale lives in ``data/render_templates.json`` so the
    phrasing can be edited without touching code. The text of a shape depends
    only on (shape, locale), so each is filled in once.
    """
    return _shape_texts(locale)[formula.mask]
