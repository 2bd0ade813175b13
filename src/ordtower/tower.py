"""A tower of well-orders on the ordinals below a cap.

For each alpha the tower carries a well-order of type omega (for infinite
alpha; of type alpha for finite alpha) on {gamma < alpha}, built so that
each order extends the structure of the previous ones:

  * alpha = lam + m with m > 0: the top elements lam+m-1, ..., lam are
    prepended in front of the order at lam (handled in closed form, no
    m-fold recursion);
  * alpha a limit: an increasing chain of finite blocks S_0 = {} in
    S_1 in S_2 in ... is generated; S_{n+1} closes S_n plus the n-th
    enumerated predecessor of alpha below a fresh chain point alpha_n,
    then adds alpha_n itself.  The order lists S_1, then S_2 \\ S_1, and
    so on, each new batch in natural ordinal order, so alpha_n comes last.
    Each limit keeps this one order list; S_n is its prefix of length
    chain[n].

``rank`` and ``nth`` are total and inverse on {gamma < alpha}; the
``turnstile`` relation compares ranks and is the closure notion used by
the family layer.  All chains are memoized on the instance, and entries
are only published once fully computed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

from .errors import CapExceededError, DomainError, IterationCeilingError
from .ordinals import (
    Ordinal,
    add,
    difference,
    enum_below,
    fund_seq,
    ordinal,
    oset,
    parse_ordinal,
    _as_ord,
)

DEFAULT_CAP = parse_ordinal("w^3")
# most stages one limit's construction may take, in a Tower or an AAOrders
CEILING = 20000

OrdinalSet = Tuple[Ordinal, ...]


class Tower:
    def __init__(self, cap: Ordinal | None = None):
        self.cap = _as_ord(cap) if cap is not None else DEFAULT_CAP
        # per limit eta: the order, each point's rank in it, and the block
        # chain as prefix lengths, S_i == set(order[:chain[i]])
        self._order: Dict[Ordinal, List[Ordinal]] = {}
        self._ranks: Dict[Ordinal, Dict[Ordinal, int]] = {}
        self._chain: Dict[Ordinal, List[int]] = {}

    def _check_cap(self, alpha: Ordinal) -> None:
        if alpha > self.cap:
            raise CapExceededError(f"{alpha} exceeds the configured cap {self.cap}")

    # -- rank / nth ----------------------------------------------------------

    def rank(self, alpha, x) -> int:
        """Position of x in the well-order attached to alpha; requires x < alpha."""
        alpha, x = _as_ord(alpha), _as_ord(x)
        self._check_cap(alpha)
        if not x < alpha:
            raise DomainError(f"rank needs x < alpha, got x={x}, alpha={alpha}")
        lam, m = alpha.split()
        if x >= lam:
            j = difference(x, lam).natural()
            return m - 1 - j
        return m + self._limit_rank(lam, x)

    def nth(self, alpha, k: int) -> Ordinal:
        """Inverse of rank: the element of {gamma < alpha} at position k."""
        alpha = _as_ord(alpha)
        self._check_cap(alpha)
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        lam, m = alpha.split()
        if k < m:
            return add(lam, ordinal(m - 1 - k))
        if lam.is_zero():
            raise DomainError(f"rank {k} out of range for alpha={alpha}")
        return self._limit_nth(lam, k - m)

    def turnstile(self, alpha, beta, gamma) -> bool:
        """True when beta, gamma < alpha and gamma precedes beta in alpha's order."""
        alpha, beta, gamma = _as_ord(alpha), _as_ord(beta), _as_ord(gamma)
        self._check_cap(alpha)
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
        alpha = _as_ord(alpha)
        self._check_cap(alpha)
        a = [_as_ord(x) for x in a]
        for x in a:
            if not x < alpha:
                raise DomainError(f"close needs elements < alpha, got {x} >= {alpha}")
        lam, m = alpha.split()
        segment = [add(lam, ordinal(j)) for j in range(m)]
        below = [x for x in a if x < lam]
        rest: List[Ordinal] = []
        if below:
            rest = self._close_limit(lam, below)
        return oset(segment + rest)

    def blocks(self, eta, n: int) -> OrdinalSet:
        """The n-th closure block S_n of the chain at the limit eta."""
        eta = _as_ord(eta)
        self._check_cap(eta)
        if not eta.is_limit():
            raise DomainError(f"blocks requires a limit ordinal, got {eta}")
        if n < 0:
            raise DomainError(f"block index must be >= 0, got {n}")
        chain = self._ensure_chain(eta)
        while len(chain) <= n:
            self._grow(eta)
        return tuple(sorted(self._order[eta][:chain[n]]))

    # -- internals -----------------------------------------------------------

    def _ensure_chain(self, eta: Ordinal) -> List[int]:
        chain = self._chain.get(eta)
        if chain is None:
            chain = self._chain[eta] = [0]
            self._order[eta] = []
            self._ranks[eta] = {}
        return chain

    def _next_chain_point(self, eta: Ordinal, mx: Ordinal) -> Ordinal:
        # least value of the fundamental sequence above mx, by doubling
        if fund_seq(eta, 0) > mx:
            return fund_seq(eta, 0)
        lo, hi = 0, 1
        while not fund_seq(eta, hi) > mx:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fund_seq(eta, mid) > mx:
                hi = mid
            else:
                lo = mid
        return fund_seq(eta, hi)

    def _grow(self, eta: Ordinal) -> None:
        chain, order, ranks = self._chain[eta], self._order[eta], self._ranks[eta]
        n = len(chain) - 1
        if n >= CEILING:
            raise IterationCeilingError(
                f"chain at {eta} exceeded {CEILING} blocks")
        e = enum_below(eta, n)
        # order[-1] is the previous chain point, the largest point of S_n
        mx = e if not order or e > order[-1] else order[-1]
        alpha_n = self._next_chain_point(eta, mx)
        # close() is sorted and below alpha_n, which is new and comes last
        new = [x for x in self.close(alpha_n, order + [e]) if x not in ranks]
        new.append(alpha_n)
        for x in new:
            ranks[x] = len(order)
            order.append(x)
        chain.append(len(order))

    def _close_limit(self, eta: Ordinal, a) -> List[Ordinal]:
        """The shortest block covering a, as the order prefix it is."""
        self._ensure_chain(eta)
        ranks = self._ranks[eta]
        top = 0
        for x in set(a):
            while x not in ranks:
                self._grow(eta)
            r = ranks[x]
            if r >= top:
                top = r + 1
        ends = self._chain[eta]
        return self._order[eta][:ends[bisect_left(ends, top)]]

    def _limit_rank(self, eta: Ordinal, x: Ordinal) -> int:
        ranks = self._ranks.get(eta)
        if ranks is None:
            self._ensure_chain(eta)
            ranks = self._ranks[eta]
        while x not in ranks:
            self._grow(eta)
        return ranks[x]

    def _limit_nth(self, eta: Ordinal, k: int) -> Ordinal:
        self._ensure_chain(eta)
        order = self._order[eta]
        while len(order) <= k:
            self._grow(eta)
        return order[k]
