"""A tower of well-orders on the ordinals up to ``CAP`` = w^3, and the
order family it shares with the omega layer.

For each alpha the tower carries a well-order of type omega (for infinite
alpha; of type alpha for finite alpha) on {gamma < alpha}:

  * alpha = lam + m with m > 0: a ``PrependOrder``, the top elements
    lam+m-1, ..., lam in front of the order at lam;
  * alpha a limit: a ``BlockOrder`` listing an increasing chain of finite
    blocks S_0 = {} in S_1 in ... one after the other.  S_{n+1} closes
    S_n plus the n-th enumerated predecessor e of alpha below a fresh
    chain point alpha_n, then adds alpha_n itself; each new batch is
    listed in natural ordinal order, so alpha_n comes last.

Each stage is built from its new points only.  With alpha_n = lam + m,
S_n plus e, closed below alpha_n, is the shared tail lam .. lam+m-1 plus
the shortest stage prefix of lam's order covering the points below lam
(``BlockOrder.cover``).  A stage takes one of two rules:

  * new lam (a limit whose last exponent is >= 2, and a shape-A limit's
    first stage): cover every placed point, all below lam, and keep the
    prefix's unplaced points, sorted;
  * same lam (the later stages of a shape-A limit P + w*c, chain points
    lam + n over lam = P + w*(c-1)): lam's order at positions end0 .. end,
    end also covering e, sorted, with no filter, as the points placed
    below lam are lam's first end0; the chain point steps by one.

Then comes the tail past the previous chain point, ending in alpha_n, read
off the list the tower keeps per lam (``Tower._tail``), which ``close``
reads too; growth builds no order at a chain point, and successor orders
are built on demand only.  So a limit's order costs time linear in its
length; the length itself grows fast: the least closed superset of
{3, w*k+1} has 6, 11, 20, 38, 72, 138, 268 and 526 points for k = 1..8,
so the blocks at w^2 double with each step of w.

``Orders`` holds the memo, the successor rule and ``rank``/``nth`` for
both layers; a subclass supplies only a limit's order: ``Tower`` the
closure step above, ``omega.AAOrders`` the adjusted chain.  ``rank`` and
``nth`` are total and inverse on {gamma < alpha}, with the same domain
errors in both layers; the ``turnstile`` relation compares ranks and is
the closure notion used by the family layer.  Public reads check their
input once; past that, orders read each other through the trusted
``_rank``/``_nth``.  Blocks are only published once fully computed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable

from .errors import CapExceededError, DomainError, IterationCeilingError
from .ordinals import (
    CEILING,
    ONE,
    ORD_KEY,
    ZERO,
    Ordinal,
    enum_below,
    fund_seq,
    parse_ordinal,
    _as_ord,
)

CAP = parse_ordinal("w^3")  # the largest alpha with an order, for both layers

OrdinalSet = tuple[Ordinal, ...]


class OmegaOrder:
    """A well-order of type omega given by a computable rank function.

    ``rank``, ``nth``, ``span`` and ``x in o`` check their input once.  A
    subclass gives ``bound`` and the trusted reads that orders make of each
    other: ``_rank`` of an Ordinal in the order, ``_nth`` of a k >= 0, and
    ``_has`` (x < bound here; an explicit order has no bound).  ``_span``
    (by ``_nth`` here), ``prefix`` and ``above`` derive from them.
    """

    bound: Ordinal | None = None

    def rank(self, x) -> int:
        x = _as_ord(x)
        if not self._has(x):
            raise DomainError(f"{x} is not in this order" if self.bound is None
                              else f"{x} is not below {self.bound}")
        return self._rank(x)

    def nth(self, k: int) -> Ordinal:
        self._positions(k, k + 1)
        return self._nth(k)

    def span(self, a: int, b: int) -> list[Ordinal]:
        """The elements at positions a..b-1."""
        self._positions(a, b)
        return self._span(a, b)

    def _positions(self, a: int, b: int) -> None:
        # refuse a..b-1 unless all are positions: an order of finite type n has 0..n-1
        if a < 0:
            raise DomainError(f"rank index must be >= 0, got {a}")
        n = self.bound.natural() if self.bound is not None and self.bound.is_natural() else b
        if b > n:
            raise DomainError(f"rank {max(a, n)} out of range for alpha={self.bound}")

    def _span(self, a: int, b: int) -> list[Ordinal]:
        # span for 0 <= a, b within the order; subclasses give bulk versions
        return [self._nth(i) for i in range(a, b)]

    def prefix(self, k: int) -> list[Ordinal]:
        """The first k elements."""
        return self.span(0, k)

    def above(self, beta: Ordinal, r: int) -> list[Ordinal]:
        """The elements >= beta before position r, in order."""
        return [p for p in self._span(0, r) if p >= beta]

    def __contains__(self, x) -> bool:
        return self._has(_as_ord(x))

    def _has(self, x: Ordinal) -> bool:
        return x < self.bound


class ListOrder(OmegaOrder):
    """An explicit finite order, mainly for unit-level checks."""

    def __init__(self, elements):
        self.elements = [_as_ord(x) for x in elements]
        self._ranks = {x: i for i, x in enumerate(self.elements)}
        if len(self._ranks) != len(self.elements):
            raise DomainError("explicit order has duplicate elements")

    def _rank(self, x: Ordinal) -> int:
        return self._ranks[x]

    def _nth(self, k: int) -> Ordinal:
        if k >= len(self.elements):
            raise DomainError(f"rank {k} out of range")
        return self.elements[k]

    def _has(self, x: Ordinal) -> bool:
        return x in self._ranks


class PrependOrder(OmegaOrder):
    """Order on {gamma < lam+m}: the tail lam+m-1 ... lam, then lam's order.

    Every read works on offsets from lam, so a large m costs nothing: a
    span makes only the tail points it lists.
    """

    def __init__(self, inner: OmegaOrder, lam: Ordinal, m: int):
        self.inner = inner
        self.lam = lam
        self.m = m
        self.bound = lam.plus(m)

    def _rank(self, x: Ordinal) -> int:
        if x < self.lam:
            return self.m + self.inner._rank(x)
        return self.m - 1 - x.split()[1]

    def _nth(self, k: int) -> Ordinal:
        if k < self.m:
            return self.lam.plus(self.m - 1 - k)
        return self.inner._nth(k - self.m)

    def _span(self, a: int, b: int) -> list[Ordinal]:
        m = self.m
        got = list(map(self.lam.plus, range(m - 1 - a, max(m - b, 0) - 1, -1))) if a < m else []
        return got + self.inner._span(max(a - m, 0), b - m) if b > m else got


class BlockOrder(OmegaOrder):
    """Order at a limit eta: finite blocks, listed one after the other.

    The order is the list ``_seq`` and block i is
    ``_seq[_ends[i]:_ends[i + 1]]``.  ``_ranks`` maps listed points to
    their positions; ``_rank``, ``_nth`` and ``_span`` list blocks until
    they hold the answer (a subclass may work ranks and points out
    without listing).
    Blocks are built on demand, at most ``CEILING`` of them, by ``_extend``:
    ``grow(eta)`` here, overridden by subclasses; either appends through
    ``append_block``.
    """

    def __init__(self, eta: Ordinal, grow: Callable[[Ordinal], None] | None = None):
        self.eta = self.bound = eta
        self.grow = grow
        self._seq: list[Ordinal] = []
        self._ranks: dict[Ordinal, int] = {}
        self._ends: list[int] = [0]
        self._last = None  # what _extend keeps of the previous stage

    def _extend(self) -> None:
        self.grow(self.eta)

    def _next_block(self) -> None:
        self._check_stage(len(self._ends) - 1)
        self._extend()

    def _check_stage(self, i: int) -> None:
        """Refuse stage i unless i < ``CEILING``: the one stage ceiling of
        every block construction (a subclass may stop sooner)."""
        if i >= CEILING:
            raise IterationCeilingError(
                f"block construction at {self.eta} exceeded {CEILING} stages")

    def append_block(self, points: list[Ordinal]) -> None:
        """List points, none of them listed yet, as the next block."""
        n = len(self._seq)
        self._ranks.update(zip(points, range(n, n + len(points))))
        self.list_block(points)

    def list_block(self, points: list[Ordinal]) -> None:
        """List points as the next block, leaving their ranks to the subclass."""
        self._seq.extend(points)
        self._ends.append(len(self._seq))

    def ensure_blocks(self, n: int) -> list[Ordinal]:
        """Build blocks 0..n-1 and return their points, in order."""
        while len(self._ends) <= n:
            self._next_block()
        return self._seq[:self._ends[n]]

    def cover(self, xs) -> int:
        """Length of the shortest block prefix listing every x in xs."""
        top = 1 + max(map(self._rank, xs), default=-1)
        return self._ends[bisect_left(self._ends, top)]

    def _rank(self, x: Ordinal) -> int:
        while (got := self._ranks.get(x)) is None:
            self._next_block()
        return got

    def _nth(self, k: int) -> Ordinal:
        while len(self._seq) <= k:
            self._next_block()
        return self._seq[k]

    def _span(self, a: int, b: int) -> list[Ordinal]:
        while len(self._seq) < b:
            self._next_block()
        return self._seq[a:b]


class Orders:
    """Memoized orders up to ``CAP``.  ``_orders`` starts with the least
    order; lam + m gets a ``PrependOrder`` over lam's, and any other limit
    the subclass's ``_limit_order``."""

    def __init__(self, least: dict[Ordinal, OmegaOrder]):
        self._orders: dict[Ordinal, OmegaOrder] = least

    def _check(self, alpha) -> Ordinal:
        alpha = _as_ord(alpha)
        if alpha > CAP:
            raise CapExceededError(f"{alpha} exceeds the cap {CAP}")
        return alpha

    def order(self, alpha) -> OmegaOrder:
        """The well-order attached to alpha, memoized."""
        return self._order_at(self._check(alpha))

    def _order_at(self, alpha: Ordinal) -> OmegaOrder:
        # order() for an alpha already checked
        got = self._orders.get(alpha)
        if got is None:
            lam, m = alpha.split()
            got = self._orders[alpha] = (
                PrependOrder(self._order_at(lam), lam, m)
                if m > 0 else self._limit_order(alpha))
        return got

    def _blocks(self, eta: Ordinal, n: int) -> tuple[list[Ordinal], list[int]]:
        """Blocks 0..n-1 at the limit eta, in order, and the block ends."""
        if n < 0:
            raise DomainError(f"block index must be >= 0, got {n}")
        o = self._order_at(eta)
        return o.ensure_blocks(n), o._ends

    def rank(self, alpha, x) -> int:
        """Position of x in the well-order attached to alpha; requires x < alpha."""
        alpha, x = self._check(alpha), _as_ord(x)
        if not x < alpha:
            raise DomainError(f"rank needs x < alpha, got x={x}, alpha={alpha}")
        return self._order_at(alpha)._rank(x)

    def nth(self, alpha, k: int) -> Ordinal:
        """Inverse of rank: the element of {gamma < alpha} at position k."""
        alpha = self._check(alpha)
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        if alpha.is_natural() and k >= alpha.natural():
            raise DomainError(f"rank {k} out of range for alpha={alpha}")
        return self._order_at(alpha)._nth(k)


class Tower(Orders):
    def __init__(self):
        super().__init__({ZERO: ListOrder(())})
        # per limit eta whose order has grown: the order list and the block
        # chain as prefix lengths, S_i == set(order[:chain[i]])
        self._order: dict[Ordinal, list[Ordinal]] = {}
        self._chain: dict[Ordinal, list[int]] = {}
        self._tails: dict[Ordinal, list[Ordinal]] = {}  # per lam: [lam, lam+1, ...]

    def _limit_order(self, eta: Ordinal) -> OmegaOrder:
        return BlockOrder(eta, self._grow)

    # their own entries: bench/tracer.py patches the class __dict__
    rank = Orders.rank
    nth = Orders.nth

    def turnstile(self, alpha, beta, gamma) -> bool:
        """True when beta, gamma < alpha and gamma precedes beta in alpha's order."""
        alpha, beta, gamma = self._check(alpha), _as_ord(beta), _as_ord(gamma)
        if not (beta < alpha and gamma < alpha):
            return False
        o = self._order_at(alpha)
        return o._rank(gamma) < o._rank(beta)

    # -- closure -------------------------------------------------------------

    def close(self, alpha, a) -> OrdinalSet:
        """A finite superset of a whose union with {alpha} is turnstile-closed.

        Every element of a must be < alpha.  Sorted by construction: lam's
        shortest stage prefix covering the points below lam, sorted, then
        the segment [lam, alpha).
        """
        alpha = self._check(alpha)
        a = [_as_ord(x) for x in a]
        for x in a:
            if not x < alpha:
                raise DomainError(f"close needs elements < alpha, got {x} >= {alpha}")
        lam, m = alpha.split()
        points = []
        below = [x for x in a if x < lam]
        if below:  # the shortest stage at lam covering them
            blocks = self._order_at(lam)
            points = sorted(blocks._seq[:blocks.cover(below)], key=ORD_KEY)
        return tuple(points + self._tail(lam, m)[:m] if m else points)  # the tail lies above them

    def blocks(self, eta, n: int) -> OrdinalSet:
        """The n-th closure block S_n of the chain at the limit eta."""
        eta = self._check(eta)
        if not eta.is_limit():
            raise DomainError(f"blocks requires a limit ordinal, got {eta}")
        return tuple(sorted(self._blocks(eta, n)[0], key=ORD_KEY))

    # -- internals -----------------------------------------------------------

    def _tail(self, lam: Ordinal, m: int) -> list[Ordinal]:
        """The list [lam, lam+1, ...] kept per lam, grown to m entries or more."""
        tail = self._tails.setdefault(lam, [lam])
        tail.extend(map(lam.plus, range(len(tail), m)))
        return tail

    def _grow(self, eta: Ordinal) -> None:
        """Append eta's next block by the same-lam rule on a shape-A limit's
        later stages, else by the new-lam rule (see the module docstring)."""
        o = self._orders[eta]
        order, chain = o._seq, o._ends
        if not order:  # the first block: publish the limit's order
            self._order[eta], self._chain[eta] = order, chain
        e = enum_below(eta, len(chain) - 1)
        # k: the last new-lam chain point's index in fund_seq; end0: the cover at lam
        k, end0 = o._last or (-1, 0)
        if order and _steps_by_one(eta):  # same lam: the chain point lam+m0 steps by one
            # an e >= lam is placed already: enum_below lists lam+j at index 2j+2
            # (j at index j at w), and stage n starts at lam+m0, m0 >= n-1
            lam, m0 = order[-1].split()
            m = m0 + 1
            end, new = end0, []
            if e < lam:  # the points placed below lam are lam's first end0, so none is new
                prefix = self._order_at(lam)
                end = max(end0, prefix.cover((e,)))
                new = sorted(prefix._seq[end0:end], key=ORD_KEY)
        else:  # new lam: cover every placed point, all of them below lam
            # order[-1] is the previous chain point, the largest point of S_n
            mx = e if not order or e > order[-1] else order[-1]
            k, alpha_n = _next_chain_point(eta, mx, k)
            lam, m = alpha_n.split()
            m0, end, new = -1, 0, []
            below = [x for x in order + [e] if x < lam]
            if below:  # lam's new points sort below the new tail, then alpha_n
                prefix = self._order_at(lam)
                end = prefix.cover(below)
                new = sorted((x for x in prefix._seq[:end] if x not in o._ranks), key=ORD_KEY)
        # the tail lam+m0+1 .. lam+m, ending in the chain point alpha_n
        new += self._tail(lam, m + 1)[m0 + 1:m + 1]
        o.append_block(new)
        o._last = (k, end)


def _steps_by_one(eta: Ordinal) -> bool:
    """Whether eta is shape A, its chain stepping by one, for ``Tower._grow``'s
    same-lam rule: with last exponent 1, fund_seq(P + w*c, n) = P + w*(c-1) + n."""
    return eta._terms[-1][0] is ONE


def _next_chain_point(eta: Ordinal, mx: Ordinal, k: int) -> tuple[int, Ordinal]:
    """The least i > k with fund_seq(eta, i) > mx, and that value.  A chain's
    index only rises, so scanning up from the previous one costs its final
    index in all."""
    k += 1
    while not (top := fund_seq(eta, k)) > mx:
        k += 1
    return k, top
