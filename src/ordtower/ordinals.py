"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
sum is 0.  Values are hash-consed: every construction goes through one
intern table keyed by the terms, so each value exists as exactly one
immutable object.  Their parts are too: each (exponent, coefficient) term
pair, and its image (exponent key, coefficient) in the sort key, is kept
once in a second table, so equal pairs in different values are one
object.  Equality and hashing are object identity, which makes
ordinals cheap dict keys for the memoized structures built on top of
them; an ``int`` compares equal to the finite ordinal of the same value.

The literal grammar (used by both the parser and ``str``):

    ordinal := term ("+" term)*
    term    := "w" ("^" atom)? ("*" nat)? | nat
    atom    := nat | "w" | "(" ordinal ")"

``str`` always emits the canonical form: decreasing exponents, ``*c``
omitted when c == 1, ``^e`` omitted when e == 1, finite parts printed as
plain naturals.  The parser accepts non-canonical input ("w+w", "1+w")
and normalizes it through ordinal addition.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import isqrt
from operator import attrgetter

from .errors import DomainError, IterationCeilingError, NotALimitError, OrdinalSyntaxError

Term = tuple["Ordinal", int]

_TABLE: dict = {}  # terms -> the one Ordinal with those terms
_PAIRS: dict = {}  # each term pair (e, c) and key pair (e._key, c) -> its one copy


class Ordinal:
    __slots__ = ("_terms", "_key")

    def __new__(cls, terms: tuple[Term, ...] = ()):
        o = _TABLE.get(terms)
        if o is None:
            pair = _PAIRS.setdefault
            terms = tuple([pair(t, t) for t in terms])
            o = _TABLE[terms] = object.__new__(cls)
            o._terms = terms
            # nested-tuple image of the CNF; tuple order coincides with ordinal order
            o._key = tuple([pair(k, k) for k in [(e._key, c) for e, c in terms]])
        return o

    def __reduce__(self):
        # copy and pickle rebuild through the table; the default would build
        # Ordinal(), which is ZERO, and then overwrite its slots
        return Ordinal, (self._terms,)

    @staticmethod
    def from_terms(terms: Iterable[Term]) -> "Ordinal":
        """Build from explicit (exponent, coefficient) pairs, validating CNF."""
        ts = tuple((_as_ord(e), int(c)) for e, c in terms)
        for e, c in ts:
            if c < 1:
                raise DomainError(f"coefficient must be >= 1, got {c}")
        for (e1, _), (e2, _) in zip(ts, ts[1:]):
            if not e1 > e2:
                raise DomainError("exponents must be strictly decreasing")
        return Ordinal(ts)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_natural(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0]._terms == ())

    def natural(self) -> int:
        if not self._terms:
            return 0
        if self.is_natural():
            return self._terms[0][1]
        raise DomainError(f"{self} is not a natural number")

    def split(self) -> tuple["Ordinal", int]:
        """Decompose as lam + m with lam limit-or-zero and m natural."""
        if self._terms and not self._terms[-1][0]._terms:
            return Ordinal(self._terms[:-1]), self._terms[-1][1]
        return self, 0

    def plus(self, m: int) -> "Ordinal":
        """self + m for a natural m; lam.plus(m) undoes split."""
        ts = self._terms
        if not m:
            return self
        if ts and not ts[-1][0]._terms:
            return Ordinal(ts[:-1] + ((ts[-1][0], ts[-1][1] + m),))
        return Ordinal(ts + ((ZERO, m),))

    def is_limit(self) -> bool:
        return bool(self._terms) and bool(self._terms[-1][0]._terms)

    def is_successor(self) -> bool:
        return bool(self._terms) and not self._terms[-1][0]._terms

    def succ(self) -> "Ordinal":
        return self.plus(1)

    def pred(self) -> "Ordinal":
        if not self.is_successor():
            raise DomainError(f"{self} is not a successor")
        lam, m = self.split()
        return lam.plus(m - 1)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not Ordinal:
            other = _maybe_ord(other)
            if other is None:
                return NotImplemented
        return self is other

    __hash__ = object.__hash__

    def __lt__(self, other) -> bool:
        if type(other) is Ordinal:
            return self._key < other._key
        other = _maybe_ord(other)
        if other is None:
            return NotImplemented
        return self._key < other._key

    def __le__(self, other) -> bool:
        if type(other) is Ordinal:
            return self._key <= other._key
        other = _maybe_ord(other)
        if other is None:
            return NotImplemented
        return self._key <= other._key

    def __gt__(self, other) -> bool:
        if type(other) is Ordinal:
            return self._key > other._key
        other = _maybe_ord(other)
        if other is None:
            return NotImplemented
        return self._key > other._key

    def __ge__(self, other) -> bool:
        if type(other) is Ordinal:
            return self._key >= other._key
        other = _maybe_ord(other)
        if other is None:
            return NotImplemented
        return self._key >= other._key

    def __add__(self, other) -> "Ordinal":
        other = _maybe_ord(other)
        if other is None:
            return NotImplemented
        return add(self, other)

    def __radd__(self, other) -> "Ordinal":
        other = _maybe_ord(other)
        if other is None:
            return NotImplemented
        return add(other, self)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return "+".join(_term_str(e, c) for e, c in self._terms)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


def _term_str(e: Ordinal, c: int) -> str:
    if e.is_zero():
        return str(c)
    s = "w"
    if e is not ONE:
        if e.is_natural() or e is W:
            s += "^" + str(e)
        else:
            s += "^(" + str(e) + ")"
    if c != 1:
        s += "*" + str(c)
    return s


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
W = Ordinal(((ONE, 1),))


def ordinal(n: int) -> Ordinal:
    """The finite ordinal n."""
    if isinstance(n, Ordinal):
        return n
    if n < 0:
        raise DomainError(f"ordinals are non-negative, got {n}")
    return Ordinal(((ZERO, n),)) if n else ZERO


def _maybe_ord(x):
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return ordinal(x)
    return None


def _as_ord(x) -> Ordinal:
    if type(x) is Ordinal:
        return x
    o = _maybe_ord(x)
    if o is None:
        raise DomainError(f"not an ordinal: {x!r}")
    return o


def compare(a, b) -> int:
    """-1, 0 or 1 as a <, == or > b."""
    ka, kb = _as_ord(a)._key, _as_ord(b)._key
    if ka < kb:
        return -1
    return 1 if ka > kb else 0


def add(a, b) -> Ordinal:
    """Ordinal addition: terms of a below b's leading exponent are absorbed."""
    a, b = _as_ord(a), _as_ord(b)
    if not b._terms:
        return a
    if not a._terms:
        return b
    e0, c0 = b._terms[0]
    i = 0
    ts = a._terms
    while i < len(ts) and compare(ts[i][0], e0) > 0:
        i += 1
    if i < len(ts) and ts[i][0] is e0:
        head = ts[:i] + ((e0, ts[i][1] + c0),)
    else:
        head = ts[:i] + ((e0, c0),)
    return Ordinal(head + b._terms[1:])


def difference(a, b) -> Ordinal:
    """The unique d with b + d == a; requires b <= a."""
    a, b = _as_ord(a), _as_ord(b)
    i = 0
    while i < len(a._terms) and i < len(b._terms) and a._terms[i] == b._terms[i]:
        i += 1
    if i == len(b._terms):
        return Ordinal(a._terms[i:])
    if i == len(a._terms):
        raise DomainError(f"cannot subtract: {b} > {a}")
    (ea, ca), (eb, cb) = a._terms[i], b._terms[i]
    c = compare(ea, eb)
    if c > 0:
        return Ordinal(a._terms[i:])
    if c == 0 and ca > cb:
        return Ordinal(((ea, ca - cb),) + a._terms[i + 1:])
    raise DomainError(f"cannot subtract: {b} > {a}")


def fund_seq(lam, n: int) -> Ordinal:
    """n-th element of the canonical fundamental sequence of the limit lam.

    lam = P + w^e*c.  For e = e'+1 the sequence steps by w^e' below
    P + w^e*(c-1); for e a limit it lifts e's own sequence into the
    exponent.  Strictly increasing in n with supremum lam.
    """
    lam = _as_ord(lam)
    if not lam.is_limit():
        raise NotALimitError(f"{lam} is not a limit ordinal")
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    e, c = lam._terms[-1]
    parts = list(lam._terms[:-1])
    if c > 1:
        parts.append((e, c - 1))
    if e.is_successor():
        if n > 0:  # e ends in the natural term k, so e-1 ends in k-1
            head, k = e._terms[:-1], e._terms[-1][1]
            parts.append((Ordinal(head + ((ZERO, k - 1),) if k > 1 else head), n))
    else:
        parts.append((fund_seq(e, n), 1))
    return Ordinal(tuple(parts))


# -- canonical enumeration of {gamma < eta} --------------------------------
#
# At eta = lam + m the top elements lam+m-1, ..., lam come first, then
# lam's enumeration.  At a limit the interval blocks
# [fund_seq(eta,i-1), fund_seq(eta,i)) are dovetailed along diagonals
# i+j = d: diagonal d takes element j = d-i of every block i < d that is
# not yet exhausted, in increasing i, then element 0 of block d.  Block 0 is
# [0, head), head = fund_seq(eta, 0) = lam0 + m0, and there are two shapes:
#   A. eta's last exponent is 1: blocks from 1 on are single points
#      head+i-1; block 0 is empty (eta = w) or infinite.
#   B. otherwise blocks from 1 on are infinite, of length w^x for x the last
#      exponent of fund_seq(eta, i); block 0 is infinite when lam0 > 0 (at
#      w^w*2 it is [0, w^w+1)), one point at head = 1 (w^w), else empty.
# So _position finds position n's block [start, start+lam'+m') and offset j
# by arithmetic.  As addition is associative, enum_below descends one block
# at a time with a running left summand.  Each step lands strictly lower and
# depends only on (eta, n); past CEILING steps the call raises (index 0 at
# w*k takes k).

CEILING = 20000  # the one work bound: descent steps, and blocks per limit's order
_enum_answers: dict = {}  # (eta, n) -> enum_below(eta, n)


def enum_below(eta, n: int) -> Ordinal:
    """n-th value of the canonical enumeration of {gamma < eta}.

    Surjective onto the predecessors of eta; injective unless eta is a
    finite ordinal (indices past eta-1 then repeat 0).
    """
    eta = _as_ord(eta)
    got = _enum_answers.get((eta, n))
    if got is not None:
        return got
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if eta.is_zero():
        raise DomainError("enum_below requires eta > 0")
    base, (lam, m), j, steps = ZERO, eta.split(), n, 0
    while j >= m and lam is not ZERO:  # base + enum_below(lam + m, j) is the answer
        if steps == CEILING:
            raise _ceiling(eta)
        steps += 1
        start, lam, m, j = _position(lam, j - m)
        base = add(base, start)
    got = _enum_answers[eta, n] = add(base, lam.plus(m - 1 - j)) if j < m else base
    return got


def _position(eta: Ordinal, n: int) -> tuple:
    """Position n of the diagonal walk below the limit eta, as (start, lam', m', j)."""
    head = fund_seq(eta, 0)
    if eta._terms[-1][0] is ONE:  # shape A
        if head is ZERO:
            return head.plus(n), ZERO, 1, 0
        if n % 2 or not n:
            return ZERO, head, 0, (n + 1) // 2
        return head.plus(n // 2 - 1), ZERO, 1, 0
    if head is ONE:  # block 0 is one point, then the walk goes on as if empty
        if not n:
            return ZERO, ZERO, 1, 0
        n -= 1
    lam0, m0 = head.split()
    first = 0 if lam0 else 1  # the least block on every diagonal
    d = (isqrt(8 * n + 1) - 1) // 2
    k = n - d * (d + 1) // 2  # diagonal d holds blocks first..first+d at offsets d..0
    i = first + k
    if not i:
        return ZERO, lam0, m0, d
    hi = fund_seq(eta, i)
    return head if i == 1 else fund_seq(eta, i - 1), Ordinal(((hi._terms[-1][0], 1),)), 0, d - k


def enum_prefix(eta, n: int) -> list:
    """First n enumeration values of {gamma < eta} as a list: the list, or
    the first error, of [enum_below(eta, i) for i in range(n)].  The answers
    go into enum_below's memo, and a prefix it holds whole is read from it."""
    if n < 0:
        raise DomainError(f"count must be >= 0, got {n}")
    if not n:
        return []
    eta = _as_ord(eta)
    got = []
    for i in range(n):
        x = _enum_answers.get((eta, i))
        if x is None:
            break
        got.append(x)
    else:
        return got
    if eta.is_zero():
        raise DomainError("enum_below requires eta > 0")
    got = _prefix(eta, n)
    _enum_answers.update(zip([(eta, i) for i in range(n)], got))
    return got


def _prefix(eta: Ordinal, n: int) -> list:
    """enum_prefix(eta, n) for eta, n > 0: enum_below's descent for each
    index, stopped at the first state an earlier index has already taken
    down.  Blocks of one length share their states, so each (limit, offset)
    descends once per call.  Each state keeps its count of descent steps, so
    the call fails exactly when enum_below would, at the same index."""
    memo = {}  # (lam, m, j) -> (enum_below(lam + m, j), its descent steps)
    got, top = [], eta.split()
    for i in range(n):
        path, (lam, m), j, hit = [], top, i, None
        while j >= m and lam is not ZERO and hit is None:
            if len(path) == CEILING:
                raise _ceiling(eta)
            start, lam, m, j = _position(lam, j - m)
            path.append((start, (lam, m, j)))
            hit = memo.get((lam, m, j))
        value, steps = hit or ((lam.plus(m - 1 - j) if j < m else ZERO), 0)
        if len(path) + steps > CEILING:
            raise _ceiling(eta)
        for start, state in reversed(path):
            memo[state] = value, steps
            value, steps = add(start, value), steps + 1
        got.append(value)
    return got


def _ceiling(eta: Ordinal) -> IterationCeilingError:
    return IterationCeilingError(f"enumeration below {eta} exceeded {CEILING} descent steps")


# -- literals ---------------------------------------------------------------


class _Parser:
    max_depth = 100  # deeper parentheses would exhaust the stack here or in str()
    max_digits = 1000  # far below the 4300 digits int() and str() convert, even for a sum

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str) -> OrdinalSyntaxError:
        # quote a long input by its head only, so the message stays one short line
        text = self.text
        shown = repr(text[:40]) + ("…" if len(text) > 40 else "")
        return OrdinalSyntaxError(f"{msg} in {shown}", self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        if self.pos - start > self.max_digits:
            raise self.error(f"natural number longer than {self.max_digits} digits")
        return int(self.text[start:self.pos])

    def ordinal_expr(self) -> Ordinal:
        total = self.term()
        while self.peek() == "+":
            self.pos += 1
            total = add(total, self.term())
        return total

    def term(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            e = ONE
            if self.peek() == "^":
                self.pos += 1
                e = self.atom()
            c = 1
            if self.peek() == "*":
                self.pos += 1
                c = self.nat()
            if c == 0:
                return ZERO
            return Ordinal(((e, c),))
        if ch.isdigit():
            return ordinal(self.nat())
        raise self.error("expected a term")

    def atom(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return W
        if ch == "(":
            if self.depth == self.max_depth:
                raise self.error(f"parentheses nested deeper than {self.max_depth}")
            self.pos += 1
            self.depth += 1
            o = self.ordinal_expr()
            self.expect(")")
            self.depth -= 1
            return o
        if ch.isdigit():
            return ordinal(self.nat())
        raise self.error("expected a number, 'w' or parenthesized ordinal")


def parse_ordinal(text: str) -> Ordinal:
    """Parse an ordinal literal; non-canonical input is normalized via addition."""
    p = _Parser(text)
    o = p.ordinal_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing input")
    return o


# sort key for ordinals: comparing keys is comparing ordinals, in C
ORD_KEY = attrgetter("_key")


def oset(items) -> tuple[Ordinal, ...]:
    """Normalize an iterable of ordinals to a sorted duplicate-free tuple."""
    return tuple(sorted({_as_ord(x) for x in items}, key=ORD_KEY))
