"""Exact rational scalars and immutable finite sets.

Everything downstream works over `Fraction` elements; there is no floating
point anywhere in the counting paths.  A `FiniteSet` is an immutable,
strictly sorted, duplicate-free tuple of rationals with O(1) membership.
The joint scaling of sets to integers and the canonical JSON are written here only.
"""

from __future__ import annotations

import json
import logging
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Iterator, Sequence

log = logging.getLogger(__name__)

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DomainError(ValueError):
    """An argument violates a mathematical precondition."""


class ResourceError(RuntimeError):
    """The exact computation would exceed the configured resource budget."""


class ParseError(ValueError):
    """A set file could not be parsed."""


def as_scalar(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to a canonical Scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise DomainError(f"not an exact scalar: {x!r}")


def parse_scalar(text: str) -> Fraction:
    """Parse an optionally signed integer or 'p/q' string."""
    s = text.strip()
    try:
        if "/" in s:
            p_str, q_str = s.split("/", 1)
            p, q = int(p_str), int(q_str)
            if q <= 0:
                raise DomainError(f"denominator must be positive: {s!r}")
            return Fraction(p, q)
        return Fraction(int(s))
    except DomainError:
        raise
    except ValueError as exc:
        raise ParseError(f"not a rational value: {text!r}") from exc


def format_scalar(x: Fraction) -> str:
    """Render a Scalar in the canonical 'p/q' (or bare integer) form."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class FiniteSet:
    """Immutable, sorted, duplicate-free set of rational scalars."""

    __slots__ = ("_elems", "_members")

    def __init__(self, values: Iterable):
        self._members = frozenset(map(as_scalar, values))
        if not self._members:
            raise DomainError("empty set")
        self._elems: tuple[Fraction, ...] = tuple(sorted(self._members))

    @classmethod
    def from_sorted(cls, elems: Sequence[Fraction]) -> "FiniteSet":
        """Wrap Fractions that are already strictly increasing (not checked).

        Skips the sort of the constructor, for callers that produce their
        values in order from integer keys.
        """
        if not elems:
            raise DomainError("empty set")
        self = object.__new__(cls)
        self._elems = tuple(elems)
        self._members = frozenset(self._elems)
        return self

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return self._elems

    def __len__(self) -> int:
        return len(self._elems)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._elems)

    def __contains__(self, x) -> bool:
        return as_scalar(x) in self._members

    def __getitem__(self, i: int) -> Fraction:
        return self._elems[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSet) and self._elems == other._elems

    def __hash__(self) -> int:
        return hash(self._elems)

    def __le__(self, other: "FiniteSet") -> bool:
        return self._members <= other._members

    def __lt__(self, other: "FiniteSet") -> bool:
        # Lexicographic on the sorted element tuples; used for tie-breaking.
        return self._elems < other._elems

    def __repr__(self) -> str:
        inner = ", ".join(format_scalar(x) for x in self._elems)
        return "{" + inner + "}"

    # -- convenience predicates -------------------------------------------

    def has_zero(self) -> bool:
        return ZERO in self._members

    def is_positive(self) -> bool:
        return self._elems[0] > 0

    def min(self) -> Fraction:
        return self._elems[0]

    def max(self) -> Fraction:
        return self._elems[-1]

    # -- derived sets ------------------------------------------------------

    def inverse(self) -> "FiniteSet":
        """{1/a : a in A}; requires 0 not in A."""
        if self.has_zero():
            raise DomainError("cannot invert a set containing zero")
        return FiniteSet(ONE / a for a in self._elems)

    def union(self, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet(self._members | other._members)

    def intersect(self, other: "FiniteSet") -> "FiniteSet | None":
        common = self._members & other._members
        return FiniteSet(common) if common else None


def dilate(A: FiniteSet, alpha) -> FiniteSet:
    """{alpha*a : a in A}; alpha must be nonzero so |image| = |A|."""
    alpha = as_scalar(alpha)
    if alpha == 0:
        raise DomainError("degenerate dilation")
    return FiniteSet(alpha * a for a in A)


# -- primitives the other modules share: joint scaling, canonical JSON ----

def scaled_integers(*sets: Collection[Fraction]) -> tuple:
    """(m*S as ints for each S in sets, ..., m), m the lcm of all their denominators."""
    m = lcm(*(a.denominator for S in sets for a in S))
    return (*([a.numerator * (m // a.denominator) for a in S] for S in sets), m)


def canonical_json(obj) -> str:
    """obj in the one JSON form of every report and record: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_set_text(text: str) -> tuple[FiniteSet, int]:
    """Parse the one-value-per-line set format.

    Blank lines and lines starting with '#' are ignored; duplicates are
    permitted and dropped.  Returns (set, number_of_duplicates_dropped).
    """
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_scalar(line))
        except (ParseError, DomainError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not values:
        raise ParseError("no values in set file")
    A = FiniteSet(values)
    return A, len(values) - len(A)


def load_set_file(path) -> FiniteSet:
    """Load a FiniteSet from a set file, warning about dropped duplicates.

    A file that cannot be read or is not UTF-8 text raises ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc
    A, dropped = parse_set_text(text)
    if dropped:
        log.warning("%s: dropped %d duplicate value(s)", path, dropped)
    return A
