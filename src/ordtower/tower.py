"""A tower of well-orders on the ordinals below a cap, and the order
family it shares with the omega layer.

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
S_n plus e, closed below alpha_n, is the tail lam .. lam+m-1 plus the
shortest stage prefix of lam's order covering the points below lam
(``BlockOrder.cover``).  A stage above a new lam covers every placed
point, all of them below lam, and takes the whole tail; a stage over the
previous lam covers only e, as the previous prefix holds the rest, and
takes the tail past the previous chain point.  The new block is the
prefix's unplaced points, sorted, then that tail, then alpha_n.  So a
limit's order costs time linear in its length; the length itself grows
fast: the least closed superset of {3, w*k+1} has 6, 11, 20, 38, 72,
138, 268 and 526 points for k = 1..8, so the blocks at w^2 double with
each step of w.

``Orders`` holds the memo, the successor rule and ``rank``/``nth`` for
both layers; a subclass supplies only a limit's order: ``Tower`` the
closure step above, ``omega.AAOrders`` the adjusted chain.  ``rank`` and
``nth`` are total and inverse on {gamma < alpha}, with the same domain
errors in both layers; the ``turnstile`` relation compares ranks and is
the closure notion used by the family layer.  Blocks are only
published once fully computed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable

from .errors import CapExceededError, DomainError, IterationCeilingError
from .ordinals import (
    CEILING,
    ORD_KEY,
    ZERO,
    Ordinal,
    enum_below,
    fund_seq,
    oset,
    parse_ordinal,
    _as_ord,
)

DEFAULT_CAP = parse_ordinal("w^3")

OrdinalSet = tuple[Ordinal, ...]


class OmegaOrder:
    """A well-order of type omega given by a computable rank function."""

    bound: Ordinal | None = None

    def rank(self, x) -> int:
        raise NotImplementedError

    def nth(self, k: int) -> Ordinal:
        raise NotImplementedError

    def __contains__(self, x) -> bool:
        raise NotImplementedError

    def prefix(self, k: int) -> list[Ordinal]:
        """First k elements; subclasses override with bulk versions."""
        return [self.nth(i) for i in range(k)]


class ListOrder(OmegaOrder):
    """An explicit finite order, mainly for unit-level checks."""

    def __init__(self, elements):
        self.elements = [_as_ord(x) for x in elements]
        self._ranks = {x: i for i, x in enumerate(self.elements)}
        if len(self._ranks) != len(self.elements):
            raise DomainError("explicit order has duplicate elements")

    def rank(self, x) -> int:
        x = _as_ord(x)
        if x not in self._ranks:
            raise DomainError(f"{x} is not in this order")
        return self._ranks[x]

    def nth(self, k: int) -> Ordinal:
        if not 0 <= k < len(self.elements):
            raise DomainError(f"rank {k} out of range")
        return self.elements[k]

    def __contains__(self, x) -> bool:
        return _as_ord(x) in self._ranks


class PrependOrder(OmegaOrder):
    """Order on {gamma < lam+m}: the tail lam+m-1 ... lam, then lam's order.

    ``tail`` is the list [lam, lam+1, ...] shared by every order above the
    same limit lam.  Only ``prefix`` and ``segment`` read it, growing it to
    m entries; ``rank`` and ``nth`` work on offsets from lam, so a large m
    costs nothing until a prefix needs the whole tail.
    """

    def __init__(self, inner: OmegaOrder, tail: list[Ordinal], m: int):
        self.inner = inner
        self.lam = tail[0]
        self.m = m
        self._tail = tail

    @property
    def bound(self) -> Ordinal:
        return self.lam.plus(self.m)

    def _offset(self, x: Ordinal) -> int | None:
        """j with x == lam+j (m when x is lam+w or more); None below lam."""
        if x < self.lam:
            return None
        lam, j = x.split()
        return j if lam is self.lam else self.m

    def rank(self, x) -> int:
        x = _as_ord(x)
        j = self._offset(x)
        if j is None:
            return self.m + self.inner.rank(x)
        if j >= self.m:
            raise DomainError(f"{x} is not below {self.bound}")
        return self.m - 1 - j

    def nth(self, k: int) -> Ordinal:
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        if k < self.m:
            return self.lam.plus(self.m - 1 - k)
        return self.inner.nth(k - self.m)

    def _grown_tail(self) -> list[Ordinal]:
        tail = self._tail
        tail.extend(map(self.lam.plus, range(len(tail), self.m)))
        return tail

    def prefix(self, k: int) -> list[Ordinal]:
        m, tail = self.m, self._grown_tail()
        if k <= m:
            return tail[m - k:m][::-1]
        return tail[m - 1::-1] + self.inner.prefix(k - m)

    def segment(self, j: int) -> list[Ordinal]:
        """The tail points lam+j .. lam+m-1, increasing."""
        return self._grown_tail()[j:self.m]

    def __contains__(self, x) -> bool:
        j = self._offset(_as_ord(x))
        return j is None or j < self.m


class BlockOrder(OmegaOrder):
    """Order at a limit eta: finite blocks, listed one after the other.

    The order is the list ``_seq`` and block i is
    ``_seq[_ends[i]:_ends[i + 1]]``.  ``_ranks`` maps points to their
    positions; ``_peek(x)`` is x's position when x is listed, else None, and
    grows nothing.  Here ``_ranks`` holds every listed point and ``_peek``
    reads it; a subclass may keep fewer entries and work out the rest.
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
        if len(self._ends) > CEILING:
            raise IterationCeilingError(
                f"block construction at {self.eta} exceeded {CEILING} stages")
        self._extend()

    def append_block(self, points: list[Ordinal]) -> None:
        """List points, none of them listed yet, as the next block."""
        n = len(self._seq)
        self._ranks.update(zip(points, range(n, n + len(points))))
        self.list_block(points)

    def list_block(self, points: list[Ordinal]) -> None:
        """List points as the next block, leaving their ranks to ``_peek``."""
        self._seq.extend(points)
        self._ends.append(len(self._seq))

    def ensure_blocks(self, n: int) -> list[Ordinal]:
        """Build blocks 0..n-1 and return their points, in order."""
        while len(self._ends) <= n:
            self._next_block()
        return self._seq[:self._ends[n]]

    def cover(self, xs) -> int:
        """Length of the shortest block prefix listing every x in xs."""
        top = 1 + max(map(self.rank, xs), default=-1)
        return self._ends[bisect_left(self._ends, top)]

    def _peek(self, x: Ordinal) -> int | None:
        return self._ranks.get(x)

    def rank(self, x) -> int:
        x = _as_ord(x)
        got = self._ranks.get(x)
        if got is not None:  # placed points lie below eta
            return got
        if not x < self.eta:
            raise DomainError(f"{x} is not below {self.eta}")
        while (got := self._peek(x)) is None:
            self._next_block()
        return got

    def nth(self, k: int) -> Ordinal:
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        while len(self._seq) <= k:
            self._next_block()
        return self._seq[k]

    def prefix(self, k: int) -> list[Ordinal]:
        while len(self._seq) < k:
            self._next_block()
        return self._seq[:k]

    def __contains__(self, x) -> bool:
        return _as_ord(x) < self.eta


class Orders:
    """Memoized orders up to cap.  ``_orders`` starts with the least order;
    lam + m gets a ``PrependOrder`` over lam's, reading the tail kept per
    lam, and any other limit the subclass's ``_limit_order``."""

    def __init__(self, cap: Ordinal | None, least: dict[Ordinal, OmegaOrder]):
        self.cap = _as_ord(cap) if cap is not None else DEFAULT_CAP
        self._orders: dict[Ordinal, OmegaOrder] = least
        self._tails: dict[Ordinal, list[Ordinal]] = {}

    def _check(self, alpha) -> Ordinal:
        alpha = _as_ord(alpha)
        if alpha > self.cap:
            raise CapExceededError(f"{alpha} exceeds the configured cap {self.cap}")
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
                PrependOrder(self._order_at(lam), self._tails.setdefault(lam, [lam]), m)
                if m > 0 else self._limit_order(alpha))
        return got

    def rank(self, alpha, x) -> int:
        """Position of x in the well-order attached to alpha; requires x < alpha."""
        alpha, x = self._check(alpha), _as_ord(x)
        if not x < alpha:
            raise DomainError(f"rank needs x < alpha, got x={x}, alpha={alpha}")
        return self._order_at(alpha).rank(x)

    def nth(self, alpha, k: int) -> Ordinal:
        """Inverse of rank: the element of {gamma < alpha} at position k."""
        alpha = self._check(alpha)
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        if alpha.is_natural() and k >= alpha.natural():
            raise DomainError(f"rank {k} out of range for alpha={alpha}")
        return self._order_at(alpha).nth(k)


class Tower(Orders):
    def __init__(self, cap: Ordinal | None = None):
        super().__init__(cap, {ZERO: ListOrder(())})
        # per limit eta whose order has grown: the order list and the block
        # chain as prefix lengths, S_i == set(order[:chain[i]])
        self._order: dict[Ordinal, list[Ordinal]] = {}
        self._chain: dict[Ordinal, list[int]] = {}

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
        return self.rank(alpha, gamma) < self.rank(alpha, beta)

    # -- closure -------------------------------------------------------------

    def close(self, alpha, a) -> OrdinalSet:
        """A finite superset of a whose union with {alpha} is turnstile-closed.

        Every element of a must be < alpha.  Successor levels insert the
        whole segment [lam, alpha); at a limit the first block covering a
        is returned.
        """
        alpha = self._check(alpha)
        o = self._order_at(alpha)
        a = [_as_ord(x) for x in a]
        for x in a:
            if not x < alpha:
                raise DomainError(f"close needs elements < alpha, got {x} >= {alpha}")
        lam, m = alpha.split()
        points = o.prefix(m)  # the segment [lam, alpha), from the shared tail
        below = [x for x in a if x < lam]
        if below:  # the shortest stage at lam covering them
            blocks = self._order_at(lam)
            points += blocks._seq[:blocks.cover(below)]
        return oset(points)

    def blocks(self, eta, n: int) -> OrdinalSet:
        """The n-th closure block S_n of the chain at the limit eta."""
        eta = self._check(eta)
        o = self._order_at(eta)
        if not eta.is_limit():
            raise DomainError(f"blocks requires a limit ordinal, got {eta}")
        if n < 0:
            raise DomainError(f"block index must be >= 0, got {n}")
        return tuple(sorted(o.ensure_blocks(n), key=ORD_KEY))

    # -- internals -----------------------------------------------------------

    def _grow(self, eta: Ordinal) -> None:
        o = self._orders[eta]
        order, chain = o._seq, o._ends
        if not order:  # the first block: publish the limit's order
            self._order[eta], self._chain[eta] = order, chain
        e = enum_below(eta, len(chain) - 1)
        # order[-1] is the previous chain point, the largest point of S_n
        mx = e if not order or e > order[-1] else order[-1]
        # the previous stage: the index of its chain point lam0 + m0 in the
        # fundamental sequence, and the stage prefix at lam0 it covered
        k0, lam0, m0, end0 = o._last or (-1, None, 0, 0)
        k, alpha_n = _next_chain_point(eta, mx, k0)
        lam, m = alpha_n.split()
        covered = [e]
        if lam != lam0:  # every placed point lies below the new lam
            end0, m0, covered = 0, -1, order + covered
        end, new = end0, []
        below = [x for x in covered if x < lam]
        if below:  # lam's new points sort below the new tail, then alpha_n
            prefix = self._order_at(lam)
            end = max(end0, prefix.cover(below))
            new = sorted((x for x in prefix._seq[end0:end] if x not in o._ranks), key=ORD_KEY)
        if m:  # alpha_n is a successor
            new += self._order_at(alpha_n).segment(m0 + 1)
        new.append(alpha_n)
        o.append_block(new)
        o._last = (k, lam, m, end)


def _next_chain_point(eta: Ordinal, mx: Ordinal, k: int) -> tuple[int, Ordinal]:
    """The least i > k with fund_seq(eta, i) > mx, and that value, galloping up from k."""
    lo, step = k, 1
    while not (top := fund_seq(eta, lo + step)) > mx:
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = fund_seq(eta, mid)
        if v > mx:
            hi, top = mid, v
        else:
            lo = mid
    return hi, top
