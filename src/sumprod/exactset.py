"""Exact rational scalars and immutable finite sets.

Everything downstream works over exact rationals; there is no floating
point anywhere in the counting paths.  A `FiniteSet` is an immutable,
strictly sorted, duplicate-free tuple of `Fraction`s that also holds its
scaled integers, on which it sorts, compares, hashes and tests membership.
The joint scaling of sets to integers and the canonical JSON are written here only.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Iterator, Sequence

Scalar = Fraction

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
    """Immutable, sorted, duplicate-free set of rational scalars.

    Besides its `Fraction` elements a set holds its scaled form: the sorted
    integers m*a and m, the lcm of the elements' denominators.  The form is
    canonical, so equality, hashing, membership and `scaled_integers` work
    on it.
    """

    __slots__ = ("_elems", "_scaled", "_members")

    def __init__(self, values: Iterable):
        elems = list(map(as_scalar, values))
        if not elems:
            raise DomainError("empty set")
        ints, m = _scale(elems)
        by_int = dict(zip(ints, elems))
        ints = sorted(by_int)
        self._elems: tuple[Fraction, ...] = tuple([by_int[i] for i in ints])
        self._scaled = (tuple(ints), m)
        self._members = None

    @classmethod
    def from_sorted(cls, elems: Sequence[Fraction]) -> "FiniteSet":
        """Wrap Fractions that are already strictly increasing (not checked).

        Skips the sort of the constructor, for callers that produce their
        values in order from integer keys; the scaled form is computed when
        first read.
        """
        if not elems:
            raise DomainError("empty set")
        self = object.__new__(cls)
        self._elems, self._scaled, self._members = tuple(elems), None, None
        return self

    def _form(self) -> tuple[tuple[int, ...], int]:
        """The scaled form (sorted m*a, m)."""
        if self._scaled is None:
            self._scaled = _scale(self._elems)
        return self._scaled

    def _member_ints(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self._form()[0])
        return self._members

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return self._elems

    def __len__(self) -> int:
        return len(self._elems)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._elems)

    def __contains__(self, x) -> bool:
        x = as_scalar(x)
        m = self._form()[1]
        return m % x.denominator == 0 and x.numerator * (m // x.denominator) in self._member_ints()

    def __getitem__(self, i: int) -> Fraction:
        return self._elems[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSet) and self._form() == other._form()

    def __hash__(self) -> int:
        return hash(self._form())

    def __le__(self, other: "FiniteSet") -> bool:
        ints, m = self._form()
        om = other._form()[1]
        # self's denominators all divide om only when their lcm m does
        if om % m:
            return False
        k, members = om // m, other._member_ints()
        return all(i * k in members for i in ints)

    def __lt__(self, other: "FiniteSet") -> bool:
        # Lexicographic on the sorted element tuples; used for tie-breaking.
        return self._elems < other._elems

    def __repr__(self) -> str:
        inner = ", ".join(format_scalar(x) for x in self._elems)
        return "{" + inner + "}"

    # -- convenience predicates -------------------------------------------

    def has_zero(self) -> bool:
        return 0 in self._form()[0]

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
        x, y, _ = scaled_integers(self, other)
        by_int = dict(zip(x + y, self._elems + other._elems))
        return FiniteSet.from_sorted([by_int[i] for i in sorted(by_int)])

    def intersect(self, other: "FiniteSet") -> "FiniteSet | None":
        x, y, _ = scaled_integers(self, other)
        common = set(y)
        kept = [a for a, i in zip(self._elems, x) if i in common]
        return FiniteSet.from_sorted(kept) if kept else None


def dilate(A: FiniteSet, alpha) -> FiniteSet:
    """{alpha*a : a in A}; alpha must be nonzero so |image| = |A|."""
    alpha = as_scalar(alpha)
    if alpha == 0:
        raise DomainError("degenerate dilation")
    return FiniteSet(alpha * a for a in A)


# -- primitives the other modules share: joint scaling, canonical JSON ----

def _scale(elems) -> tuple[tuple[int, ...], int]:
    """(m*a for a in elems, in their order, m), m the lcm of their denominators."""
    m = lcm(*[a.denominator for a in elems])
    return tuple([a.numerator * (m // a.denominator) for a in elems]), m


def scaled_integers(*sets: Collection[Fraction]) -> tuple:
    """(m*S as ints for each S in sets, ..., m), m the lcm of all their denominators.

    A `FiniteSet` gives its cached scaled form, rescaled to the common m."""
    forms = [S._form() if isinstance(S, FiniteSet) else _scale(S) for S in sets]
    m = lcm(*[k for _, k in forms])
    return (*(list(ints) if k == m else [i * (m // k) for i in ints] for ints, k in forms), m)


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
    """Load a FiniteSet from a set file, warning on stderr about dropped duplicates.

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
        print(f"{path}: dropped {dropped} duplicate value(s)", file=sys.stderr)
    return A
