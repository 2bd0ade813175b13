"""Almost-agreeing omega-orders on the ordinals below a cap.

Each alpha with omega <= alpha <= cap carries an order of type omega on
{gamma < alpha}.  ``AAOrders`` is a ``tower.Orders``, with the tower's
memo, successor rule and ``rank``/``nth``; it starts at omega and
supplies the limit rule:

  * base: the canonical order on the naturals;
  * alpha = lam + m: a ``PrependOrder``, the tail lam+m-1, ..., lam in
    front of lam's order, reading its points from one list per limit lam
    shared by every order above lam;
  * alpha a limit: a ``LimitOrder``, the ``BlockOrder`` whose next block
    comes from the adjusted chain.  Orders along the fundamental-sequence
    chain alpha_0 = omega < alpha_1 < ... are adjusted one by one so each
    extends the previous exactly: each certified exception point moves
    just after its anchor, its nearest predecessor in the previous order
    that is not moved later, which rewrites a finite head of the order
    and keeps the rest in place.  Block b_i is {gamma < alpha_i strictly
    before the integer i} minus earlier blocks.  Most stages read it off
    the structure: an unadjusted alpha_i = lam + m lists lam+m-1, ..., lam
    and then q points of lam's order, so when the previous stage listed
    m0 <= m and q0 <= q over the same lam and nothing else is placed, b_i
    is lam+m-1, ..., lam+m0 and then lam's positions q0..q-1.  Every other
    stage filters its prefix by the definition.  The order lists every
    point but keeps a rank entry only for filtered points: a structural
    block is one run record, and a run point's rank is worked out from
    its tail offset or its position in lam's order when first asked.
    Stage i's composed certificate is stage i-1's joined with the step's
    exception points, and is the previous one itself when the step adds
    no point.  A limit keeps its stages (alpha_i, the composed
    certificate, the adjusted order) in one list, grown in order on
    demand.

Any two of these orders agree off a finite set; ``exception_set``
returns a certified superset of the disagreement points, composed along
the same recursion that builds the orders.  Only limit uppers are
memoized: a successor lam+m reorders nothing below lam.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple

from .errors import DomainError, IterationCeilingError
from .ordinals import Ordinal, W, enum_below, ordinal, oset, _as_ord
from .rng import Lcg
from .tower import BlockOrder, OmegaOrder, Orders, PrependOrder, _next_chain_point

_POOL = 60  # verify_exception samples pairs of this many candidate points


class CanonicalOmega(OmegaOrder):
    def __init__(self):
        self.bound = W

    def rank(self, x) -> int:
        x = _as_ord(x)
        if not x.is_natural():
            raise DomainError(f"{x} is not below w")
        return x.natural()

    def _peek(self, x: Ordinal) -> int:
        return x.natural()

    def nth(self, k: int) -> Ordinal:
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        return ordinal(k)

    def prefix(self, k: int) -> list[Ordinal]:
        return [ordinal(i) for i in range(k)]

    def __contains__(self, x) -> bool:
        return _as_ord(x) < W


class PatchedOrder(OmegaOrder):
    """An outer order with its first len(head) elements reordered.

    ``head`` lists the outer order's first len(head) elements in their
    new order; from position len(head) on the order is the outer order
    itself, ranks included.
    """

    def __init__(self, outer: OmegaOrder, head: list[Ordinal]):
        self.outer = outer
        self.bound = outer.bound
        self.head = head
        self._ranks = {x: i for i, x in enumerate(head)}

    def rank(self, x) -> int:
        x = _as_ord(x)
        got = self._ranks.get(x)
        return got if got is not None else self.outer.rank(x)

    def nth(self, k: int) -> Ordinal:
        if k < 0:
            raise DomainError(f"rank index must be >= 0, got {k}")
        return self.head[k] if k < len(self.head) else self.outer.nth(k)

    def prefix(self, k: int) -> list[Ordinal]:
        n = len(self.head)
        return self.head[:k] if k <= n else self.head + self.outer.prefix(k)[n:]

    def __contains__(self, x) -> bool:
        return _as_ord(x) in self.outer


class LimitOrder(BlockOrder):
    """Block order at a limit eta > omega, built over the adjusted chain.

    Each structural block is one run ``(q, m, q0, m0, start)`` over lam's
    order ``_inner`` (the successor chain points of eta share one lam, and
    q and m rise from run to run); ``_peek`` reads a run point's position
    off its run and keeps it in ``_ranks``.
    """

    def __init__(self, ctx: "AAOrders", eta: Ordinal):
        super().__init__(eta)
        self.ctx = ctx
        self._inner: OmegaOrder | None = None
        self._runs: list[tuple[int, int, int, int, int]] = []
        self._qs: list[int] = []  # run ends, for bisecting
        self._ms: list[int] = []

    def _extend(self) -> None:
        i = len(self._ends) - 1
        oi = self.ctx.chain_order(self.eta, i)
        r = oi.rank(ordinal(i))
        fresh = self._chain_block(oi, r)
        if fresh is not None:
            self.list_block(fresh)
        else:  # the defining rule; within a block, points keep their prefix order
            self.append_block([p for p in oi.prefix(r) if self._peek(p) is None])

    def _chain_block(self, oi: OmegaOrder, r: int) -> list[Ordinal] | None:
        """oi's first r points not yet placed, read off oi = lam+m when they
        extend the previous stage's prefix over the same lam, and kept as
        the next run; else None."""
        last = self._last
        self._last = (oi.inner, oi.m, r - oi.m) if isinstance(oi, PrependOrder) else None
        if last is None or self._last is None:
            return None
        (inner0, m0, q0), (inner, m, q) = last, self._last
        if inner0 is not inner or m < m0 or q < q0 or len(self._seq) != m0 + q0:
            return None
        self._inner = inner
        self._runs.append((q, m, q0, m0, len(self._seq)))
        self._qs.append(q)
        self._ms.append(m)
        # oi.rank built a block inner far enough to hold its first q points
        rest = (inner._seq[q0:q] if isinstance(inner, BlockOrder)
                else [inner.nth(j) for j in range(q0, q)])
        return oi.segment(m0)[::-1] + rest

    def _peek(self, x: Ordinal) -> int | None:
        got = self._ranks.get(x)
        if got is not None or self._inner is None:
            return got
        runs, lam = self._runs, self._inner.bound
        if x < lam:  # run k lists positions q0..q-1 of lam's order
            qx = self._inner._peek(x)
            k = len(runs) if qx is None else bisect_right(self._qs, qx)
            if k == len(runs) or qx < runs[k][2]:
                return None
            q, m, q0, m0, start = runs[k]
            got = start + (m - m0) + (qx - q0)
        else:  # after the tail points lam+m-1 .. lam+m0
            lam_x, j = x.split()
            k = bisect_right(self._ms, j) if lam_x is lam else len(runs)
            if k == len(runs) or j < runs[k][3]:
                return None
            q, m, q0, m0, start = runs[k]
            got = start + m - 1 - j
        self._ranks[x] = got
        return got


class ExceptionCert(namedtuple("ExceptionCert", "lower upper points")):
    """Finite certified superset (the sorted tuple points) of where the
    orders at lower and upper may disagree."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "points": [str(p) for p in self.points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class VerifyResult(namedtuple("VerifyResult", "ok witness", defaults=(None,))):
    __slots__ = ()  # witness: the disagreeing pair, when not ok

    def __bool__(self) -> bool:
        return self.ok


def adjust_one(inner: OmegaOrder, outer: OmegaOrder, cert) -> OmegaOrder:
    """Rebuild outer so it extends inner exactly, given certified exceptions.

    The exception points are taken out of outer and put back in
    increasing order, each right after its anchor: its nearest inner
    predecessor that is not moved later (the front when it has none).
    Only the outer prefix up to the last point or anchor is rewritten,
    so the result is a ``PatchedOrder`` over outer.  With no points the
    outer order is returned as is (the certificate claims the restriction
    already matches).
    """
    points = cert.points if isinstance(cert, ExceptionCert) else oset(cert)
    for p in points:
        if p not in inner:
            raise DomainError(f"exception point {p} is outside the inner order")
    return _adjust(inner, outer, points)


def _adjust(inner: OmegaOrder, outer: OmegaOrder, points: tuple[Ordinal, ...]) -> OmegaOrder:
    if not points:
        return outer
    anchors: dict[Ordinal, Ordinal | None] = {}  # keyed by the moved points
    later = set(points)
    for x in points:
        later.discard(x)
        # the nearest inner predecessor not moved later
        j = inner.rank(x) - 1
        while j >= 0 and inner.nth(j) in later:
            j -= 1
        anchors[x] = inner.nth(j) if j >= 0 else None
    n = 1 + max(outer.rank(z) for z in [*points, *anchors.values()] if z is not None)
    # putting the points back one by one lists each z, then the points anchored
    # at z, latest first, each followed by its own: a stack walks that order
    after: dict[Ordinal | None, list[Ordinal]] = {}
    for x in points:
        after.setdefault(anchors[x], []).append(x)
    head, todo = [], [z for z in outer.prefix(n) if z not in anchors][::-1] + after.get(None, [])
    while todo:
        z = todo.pop()
        head.append(z)
        todo += after.get(z, ())
    return PatchedOrder(outer, head)


class AAOrders(Orders):
    """Shared context below cap: memoized orders, one list of adjusted
    chain stages per limit, and certificates at limit uppers."""

    def __init__(self, cap: Ordinal | None = None):
        super().__init__(cap, {W: CanonicalOmega()})
        # per limit eta, its adjusted chain's stages 0, 1, ... (see _stage)
        self._chain_orders: dict[Ordinal, list[tuple]] = {}
        self._exc: dict[tuple[Ordinal, Ordinal], tuple[Ordinal, ...]] = {}  # limit uppers only

    def _check(self, alpha) -> Ordinal:
        alpha = super()._check(alpha)
        if not alpha >= W:
            raise DomainError(f"orders start at w, got {alpha}")
        return alpha

    # -- the orders ----------------------------------------------------------

    order = Orders.order  # its own entry: bench/tracer.py patches the class __dict__

    def _limit_order(self, eta: Ordinal) -> OmegaOrder:
        return LimitOrder(self, eta)

    def limit_blocks(self, eta, n: int) -> list[tuple[Ordinal, ...]]:
        """First n blocks b_0..b_{n-1} of the limit construction at eta."""
        o = self._order_at(self._check(eta))
        if not isinstance(o, LimitOrder):
            raise DomainError(f"{eta} is not a limit above w")
        seq, ends = o.ensure_blocks(n), o._ends
        return [tuple(seq[ends[i]:ends[i + 1]]) for i in range(n)]

    # -- the adjusted chain ---------------------------------------------------

    def _stage(self, eta: Ordinal, i: int) -> tuple[int, Ordinal, tuple[Ordinal, ...], OmegaOrder]:
        """Stage i of eta's adjusted chain: the next fund_seq index, alpha_i
        (omega, then the fundamental sequence values above omega), the
        certificate composed up to alpha_i, and the adjusted order there."""
        stages = self._chain_orders.get(eta)
        if stages is None:
            stages = self._chain_orders[eta] = [(0, W, (), self._order_at(W))]
        while len(stages) <= i:  # built in order, each from the one before
            n, prev, cert, inner = stages[-1]
            n, alpha = _next_chain_point(eta, W, n - 1)
            step = self.exception_points(prev, alpha)
            cert = oset(cert + step) if cert and step else cert or step
            stages.append((n + 1, alpha, cert, _adjust(inner, self._order_at(alpha), cert)))
        return stages[i]

    def chain_order(self, eta: Ordinal, i: int) -> OmegaOrder:
        return self._stage(eta, i)[3]

    # -- exception certificates ----------------------------------------------

    def exception_points(self, beta: Ordinal, alpha: Ordinal) -> tuple[Ordinal, ...]:
        """Certified superset of {x < beta : the orders at beta and alpha
        place x differently relative to other points < beta}."""
        if beta is alpha:
            return ()
        lam, m = alpha.split()
        if m > 0:
            # the prepended tail never reorders {gamma < lam}
            return self.exception_points(beta, lam) if beta < lam else ()
        got = self._exc.get((beta, alpha))
        if got is not None:
            return got
        i = 0
        while not beta <= self._stage(alpha, i)[1]:
            i += 1
        _, top, cert, _ = self._stage(alpha, i)
        collected = {p for p in self._order_at(alpha).ensure_blocks(i + 1) if p < beta}
        collected.update(p for p in cert if p < beta)
        collected.update(self.exception_points(beta, top))
        got = self._exc[beta, alpha] = oset(collected)
        return got

    def exception_set(self, beta, alpha) -> ExceptionCert:
        beta, alpha = self._check(beta), self._check(alpha)
        if not beta < alpha:
            raise DomainError(f"exception_set needs beta < alpha, got {beta}, {alpha}")
        return ExceptionCert(lower=beta, upper=alpha,
                             points=self.exception_points(beta, alpha))

    def verify_exception(self, cert: ExceptionCert, samples: int, seed: int,
                         lower_order: OmegaOrder | None = None,
                         upper_order: OmegaOrder | None = None) -> VerifyResult:
        """Sampled check of the defining property: orders agree on pairs
        outside the certificate points.  Order overrides let callers probe
        deliberately mismatched orders (negative control).  Each candidate
        is ranked at most once per order, on first use and in the order
        the samples ask, so the orders grow as with a rank per use.  Once
        every candidate has both ranks and no pair disagrees, no later
        sample can, so the check ends there, at any sample count."""
        if samples < 0:
            raise DomainError(f"sample count must be >= 0, got {samples}")
        lo = lower_order if lower_order is not None else self.order(cert.lower)
        hi = upper_order if upper_order is not None else self.order(cert.upper)
        excl = set(cert.points)
        rng = Lcg(seed)
        # scan a bounded window of the enumeration for usable sample points;
        # scanning further would force very deep placements upstream
        candidates = []
        seen = set()
        for idx in range(2 * _POOL + len(excl)):
            x = enum_below(cert.lower, idx)
            if x in excl or x in seen:
                continue
            seen.add(x)
            candidates.append(x)
            if len(candidates) >= _POOL:
                break
        if len(candidates) < 2:
            raise IterationCeilingError("sample pool exhausted by exception points")

        n = len(candidates)
        lo_r, hi_r = [None] * n, [None] * n  # ranks by candidate index, asked once
        asks = ((lo, lo_r), (hi, hi_r))
        unranked = 2 * n
        for _ in range(samples):
            i, j = rng.below(n), rng.below(n)
            if i == j:  # the candidates are distinct
                continue
            for o, got in asks:  # in the order x, y in lo, then x, y in hi
                for k in i, j:
                    if got[k] is None:
                        got[k] = o.rank(candidates[k])
                        unranked -= 1
                        if not unranked and _same_order(lo_r, hi_r):
                            return VerifyResult(True, None)
            if (lo_r[i] < lo_r[j]) != (hi_r[i] < hi_r[j]):
                return VerifyResult(False, (candidates[i], candidates[j]))
        return VerifyResult(True, None)


def _same_order(lo_r: list[int], hi_r: list[int]) -> bool:
    """Whether lo_r[a] < lo_r[b] exactly when hi_r[a] < hi_r[b], for every
    ordered pair: sorted by lo, hi must tie where lo ties (an override may
    tie ranks) and rise strictly where lo rises."""
    pairs = sorted(zip(lo_r, hi_r))
    return all(h0 == h1 if l0 == l1 else h0 < h1
               for (l0, h0), (l1, h1) in zip(pairs, pairs[1:]))
