"""Almost-agreeing omega-orders on the ordinals up to ``tower.CAP`` = w^3.

Each alpha with omega <= alpha <= w^3 carries an order of type omega on
{gamma < alpha}.  ``AAOrders`` is a ``tower.Orders``, with the tower's
memo, successor rule and ``rank``/``nth``; it starts at omega and
supplies the limit rule:

  * base: the canonical order on the naturals;
  * alpha = lam + m: a ``PrependOrder``, the tail lam+m-1, ..., lam in
    front of lam's order, its points made by offsets from lam as they
    are read;
  * alpha a limit: a ``LimitOrder``, the ``BlockOrder`` whose blocks
    come from the adjusted chain.  Orders along the fundamental-sequence
    chain alpha_0 = omega < alpha_1 < ... are adjusted one by one so each
    extends the previous exactly: each certified exception point moves
    just after its anchor, its nearest predecessor in the previous order
    that is not moved later, which rewrites a finite head of the order
    and keeps the rest in place.  Block b_i is {gamma < alpha_i strictly
    before the integer i} minus earlier blocks.  Since o_i, the adjusted
    order at alpha_i, restricted to alpha_{i-1} is o_{i-1} and the
    naturals ascend in every order, the earlier blocks hold exactly the
    points below alpha_{i-1} before i-1, so b_i is o_i's points >= alpha_{i-1}
    before i-1, then o_i's points from i-1 up to i (``above`` and ``span``;
    both read only those points on a run order and a patched one).

A limit keeps its chain's stages in one list, grown in order on demand:
the next fund_seq index, alpha_i, the composed certificate (stage
i-1's joined with the step's exception points, and the previous one
itself when the step adds no point) and the adjusted order, which
``chain_order`` builds on first use, after every stage before it, and
keeps: rank reads ask for the stages out of order.
When eta's last exponent is 1 (shape A: eta = lam + w), fund_seq(eta, n)
= lam + n, and the chain adjusts nothing: block 0 is empty and omega's
order is the canonical one, so no point is an exception against omega,
and a successor step lam+j to lam+j+1 certifies none.  So o_i is lam's
order behind a tail, and a ``RunOrder`` reads eta's blocks, ranks,
points and spans by formula from block 1 on, over two int arrays: lam's
ranks of the naturals and the stage ends they give.  It builds no chain
order, and a stage record only when ``exception_points`` scans its chain.

Any other limit (last exponent >= 2: w^2*k and w^3) takes a new lam at
every stage.  A ``NewLamOrder`` lists block i off the kept order o_i, as
above, but reads a rank off the chain: a natural n opens the second part
of block n+1, so it sits at o_{n+1}'s rank of n.  Any other x lies below
alpha_k first at some k; with n_x the naturals before x in o_k, the same
in every later o_i, x lies in block max(k, n_x): when n_x >= k in its
second part, at o_{n_x}'s rank of x, else in block k's first part, after
the o_{k-1}.rank(k-1) points of blocks 0..k-1 and o_k's points >=
alpha_{k-1} before x.  A read refuses where listing its block would, and
lists no block: w^2's rank of a natural n builds its chain through stage
n+1, where listing block n+1 cost time quadratic in n.

Both keep each rank they work out without listing in ``_read``, beside
``_ranks``'s listed positions, so a repeated read is one dict hit.

Any two of these orders agree off a finite set; ``exception_set``
returns a certified superset of the disagreement points, composed along
the same recursion that builds the orders.  Only limit uppers are
memoized: a successor lam+m reorders nothing below lam.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property

from . import tower
from .errors import DomainError, IterationCeilingError
from .ordinals import ORD_KEY, ZERO, Ordinal, W, _as_ord, enum_below, fund_seq, ordinal, oset
from .rng import Lcg
from .tower import BlockOrder, OmegaOrder, Orders, _next_chain_point, _steps_by_one

_POOL = 60  # verify_exception samples pairs of this many candidate points


class CanonicalOmega(OmegaOrder):
    bound = W

    def _rank(self, x: Ordinal) -> int:
        return x.natural()

    def _nth(self, k: int) -> Ordinal:
        return ordinal(k)

    def _span(self, a: int, b: int) -> list[Ordinal]:
        return list(map(ordinal, range(a, b)))


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

    def _rank(self, x: Ordinal) -> int:
        got = self._ranks.get(x)
        return got if got is not None else self.outer._rank(x)

    def _nth(self, k: int) -> Ordinal:
        return self.head[k] if k < len(self.head) else self.outer._nth(k)

    def _span(self, a: int, b: int) -> list[Ordinal]:
        n = len(self.head)
        return self.head[a:b] + (self.outer._span(max(a, n), b) if b > n else [])

    def above(self, beta: Ordinal, r: int) -> list[Ordinal]:
        # the head holds the outer order's first len(head) points, so the
        # outer list starts with the head's points >= beta
        got = [p for p in self.head[:r] if p >= beta]
        return got + self.outer.above(beta, r)[len(got):] if r > len(self.head) else got

    def _has(self, x: Ordinal) -> bool:  # the outer order may be explicit, with no bound
        return self.outer._has(x)


class LimitOrder(BlockOrder):
    """Block order at a limit eta > omega: a ``RunOrder`` or a
    ``NewLamOrder``, as ``AAOrders._limit_order`` picks by eta's shape.
    Block 0 is empty; a subclass lists block i >= 1 with ``_block``.
    ``_ranks`` holds the listed positions only; ``_read`` memoizes the
    ranks a subclass works out without listing, so each is worked out
    once.  A memo hit skips no refusal: its read passed every stage check
    on the way, and stages only grow."""

    def __init__(self, ctx: "AAOrders", eta: Ordinal):
        super().__init__(eta)
        self.ctx = ctx
        self._read: dict[Ordinal, int] = {}

    def _extend(self) -> None:
        i = len(self._ends) - 1
        if i:
            self._block(i)
        else:  # omega's order has nothing before 0
            self.append_block([])


class RunOrder(LimitOrder):
    """Order at a shape-A limit eta = lam + w, read by formula from block 1.

    Stage i >= 1 sits at alpha_i = lam + (i + c), c = 0 at lam = w and -1
    above it.  With I = lam's order and q(n) = I.rank(n), stage i lists the
    tail point lam+(i-1+c) when i + c >= 1, then I's positions
    q(i-1)..q(i)-1, q(0) read as 0 at stage 1; it ends at e(i) = i+c+q(i).
    Int arrays hold q (``_run_ranks``) and e (``_run_ends``).  So lam+j sits
    at e(j-c), a natural n at e(n)+1, and any other x < lam at
    i+c+I.rank(x), i the least stage >= 1 with q(i) > I.rank(x): the C
    ``bisect_right`` on q, as on e for a position's stage.

    I is built on the first read, so building w*k's order nests no frames.
    A rank read that finds no point listed lists blocks 1..1-c with rank
    entries, which later reads hit, and ``_span`` reads listed positions
    from ``_seq``; later blocks are listed only for ``ensure_blocks``.  The
    rank of an x < lam that is not a natural, the one read that asks I, is
    kept in ``_read``; naturals and tail points are array reads.  A
    read grows the arrays exactly through the stage whose end it reads,
    down the whole chain of run orders, and meets listing's ceiling by
    arithmetic (``_reach``).
    """

    def __init__(self, ctx: "AAOrders", eta: Ordinal):
        super().__init__(ctx, eta)
        self._lam = fund_seq(eta, 0)
        self._c = -(self._lam is not W)
        self._first = 2 - self._c  # blocks 0..1-c hold rank entries
        self._depth = eta._terms[-1][1]  # d of eta = P + w*d bounds the chain of run orders below
        self._run_ranks = array("q")  # q(0), q(1), ...
        self._run_ends = array("q")  # e(0), e(1), ...

    @cached_property
    def _inner(self) -> OmegaOrder:
        return self.ctx._order_at(self._lam)

    def _block(self, i: int) -> None:
        q, c = self._run_ranks, self._c
        self._grown(i)
        points = [self._lam.plus(i - 1 + c)] if i + c > 0 else []
        points += self._inner._span(q[i - 1] if i > 1 else 0, q[i])
        (self.append_block if i < self._first else self.list_block)(points)

    def _grown(self, n: int) -> array:
        """The stage ends through stage n, and q with them: e(t) needs I's
        rank of t, which reads I's own stage t and no further.  A new stage
        within the chain's depth of the ceiling is checked as by ``_reach``."""
        e = self._run_ends
        if n < len(e):
            return e
        q, inner, c = self._run_ranks, self._inner, self._c
        runs = type(inner) is RunOrder  # then t sits at e_I(t)+1, read one frame a level
        for t in range(len(e), n + 1):
            if t + self._depth >= tower.CEILING:
                self._reach(t)
            r = inner._grown(t)[t] + 1 if runs else inner._rank(ordinal(t))
            q.append(r)
            e.append(t + c + r)
        return e

    def _reach(self, t: int) -> None:
        """Refuse stage t as listing would: it needs stage t+j of the order j
        levels down, so the deepest limit order of the chain refuses first."""
        o = self
        while type(o) is RunOrder and isinstance(o._inner, LimitOrder):
            o, t = o._inner, t + 1
        o._check_stage(t)

    def _stage_at(self, k: int) -> int:
        """The stage holding position k."""
        e = self._run_ends
        while not e or e[-1] <= k:
            self._grown(len(e))
        return bisect_right(e, k) or 1

    def _rank(self, x: Ordinal) -> int:
        got = self._ranks.get(x)
        if got is not None:
            return got
        if not self._ranks:  # nothing listed yet
            self.ensure_blocks(self._first)
        c, ts = self._c, x._terms
        if not ts or ts[0][0] is ZERO:  # n at e(n)+1, after stage n+1's tail point
            j, after = ts[0][1] if ts else 0, 1
        elif x._key >= self._lam._key:  # the tail point lam+m at e(m-c), opening stage m-c+1
            j, after = x.split()[1] - c, 0
        else:  # I's rank comes first, so a ceiling met there names I, as listing would
            got = self._read.get(x)
            if got is None:
                qx = self._inner._rank(x)
                q = self._run_ranks
                while q[-1] <= qx:  # until the least i with q(i) > qx is held
                    self._grown(len(q))
                got = self._read[x] = (bisect_right(q, qx) or 1) + c + qx
            return got
        if j + 1 + self._depth >= tower.CEILING:
            self._reach(j + 1)
        return self._grown(j)[j] + after

    def _nth(self, k: int) -> Ordinal:
        return self._span(k, k + 1)[0]

    def _span(self, a: int, b: int) -> list[Ordinal]:
        # past the listed points, stage by stage: its tail point, then a span
        # of I, one frame deeper
        got = self._seq[a:b]
        k = max(a, len(self._seq))
        if k < b:
            inner, e, c = self._inner, self._run_ends, self._c
            self._stage_at(b - 1)
            i = self._stage_at(k)
            while k < b:
                if k == e[i - 1] and i + c > 0:
                    got.append(self._lam.plus(i - 1 + c))
                    k += 1
                end = min(b, e[i])
                if k < end:
                    got += inner._span(k - i - c, end - i - c)
                    k = end
                i += 1
        return got

    def above(self, beta: Ordinal, r: int) -> list[Ordinal]:
        if beta is not self._lam:
            return super().above(beta, r)
        # those >= lam are the tail points, one a stage from stage 1-c on
        return list(map(beta.plus, range(self._stage_at(r - 1) + self._c))) if r else []


class NewLamOrder(LimitOrder):
    """Order at a limit eta whose last exponent is >= 2 (w^2*k, w^3): its
    chain takes a new lam at every stage.  Block i is listed off the kept
    adjusted order o_i, and an unlisted point's rank is read off the chain
    (``_chain_rank``, by the rule in the module docstring) with no block
    listed, once: ``_read`` keeps it."""

    def _block(self, i: int) -> None:
        # the points >= alpha_{i-1} before i-1, then those from i-1 to i
        oi, stages = self.ctx.chain_order(self.eta, i), self.ctx._chain_orders[self.eta]
        r1, r = oi._rank(ordinal(i - 1)), oi._rank(ordinal(i))
        self.append_block(oi.above(stages[i - 1][1], r1) + oi._span(r1, r))

    def _rank(self, x: Ordinal) -> int:
        got = self._ranks.get(x)
        if got is None and (got := self._read.get(x)) is None:
            got = self._read[x] = self._chain_rank(x)
        return got

    def _chain_rank(self, x: Ordinal) -> int:
        """x's position read off the adjusted chain: a natural n in block n+1
        at o_{n+1}'s rank of n, any other x in block max(k, n_x) (see the
        module docstring)."""
        ctx, eta, ts = self.ctx, self.eta, x._terms
        if not ts or ts[0][0] is ZERO:  # n opens the second part of block n+1
            n = ts[0][1] if ts else 0
            self._check_stage(n + 1)
            return ctx.chain_order(eta, n + 1)._rank(x)
        k = 1  # the least k with x < alpha_k: x lies in block k or later
        while not x < ctx._stage(eta, k)[1]:
            k += 1
            self._check_stage(k)
        ok = ctx.chain_order(eta, k)
        r = ok._rank(x)
        if ok._rank(ordinal(k - 1)) > r:  # n_x < k: block k's first part
            # block k starts at o_{k-1}'s rank of k-1; before x in its first
            # part come o_k's points >= alpha_{k-1} before x
            start = ctx.chain_order(eta, k - 1)._rank(ordinal(k - 1))
            return start + len(ok.above(ctx._stage(eta, k - 1)[1], r))
        n = k  # n_x >= k: the second part of block n_x
        while ok._rank(ordinal(n)) < r:
            n += 1
        self._check_stage(n)
        return r if n == k else ctx.chain_order(eta, n)._rank(x)


class ExceptionCert(namedtuple("ExceptionCert", "lower upper points")):
    """Finite certified superset (the sorted tuple points) of where the
    orders at lower and upper may disagree.  The constructor normalizes
    points by ``oset``; ``exception_set`` hands over ``exception_points``'
    tuple, normalized already, through ``_make``."""

    __slots__ = ()

    def __new__(cls, lower, upper, points):
        return super().__new__(cls, lower, upper, oset(points))

    def to_dict(self) -> dict:
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "points": [str(p) for p in self.points],
        }


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
    """Shared context up to ``CAP``: memoized orders, one list of adjusted
    chain stages per limit, and certificates at limit uppers."""

    def __init__(self):
        super().__init__({W: CanonicalOmega()})
        # per limit eta, its adjusted chain's stages 0, 1, ... (see _stage)
        self._chain_orders: dict[Ordinal, list[list]] = {}
        self._exc: dict[tuple[Ordinal, Ordinal], tuple[Ordinal, ...]] = {}  # limit uppers only

    def _check(self, alpha) -> Ordinal:
        alpha = super()._check(alpha)
        if not alpha >= W:
            raise DomainError(f"orders start at w, got {alpha}")
        return alpha

    # -- the orders ----------------------------------------------------------

    order = Orders.order  # its own entry: bench/tracer.py patches the class __dict__

    def _limit_order(self, eta: Ordinal) -> OmegaOrder:
        return (RunOrder if _steps_by_one(eta) else NewLamOrder)(self, eta)

    def limit_blocks(self, eta, n: int) -> list[tuple[Ordinal, ...]]:
        """First n blocks b_0..b_{n-1} of the limit construction at eta."""
        eta = self._check(eta)
        if not eta.is_limit() or eta is W:  # w's order is the canonical one
            raise DomainError(f"{eta} is not a limit above w")
        seq, ends = self._blocks(eta, n)
        return [tuple(seq[ends[i]:ends[i + 1]]) for i in range(n)]

    # -- the adjusted chain ---------------------------------------------------

    def _stage(self, eta: Ordinal, i: int) -> list:
        """Stage i of eta's adjusted chain, as [the next fund_seq index,
        alpha_i, the certificate composed up to alpha_i, the adjusted order
        there or None until ``chain_order`` builds it].  Each stage after
        omega's takes the next fund_seq value above omega and the step's
        exception points (none on a shape-A chain past stage 1, where each
        is the previous plus 1)."""
        stages = self._chain_orders.get(eta)
        if stages is None:
            stages = self._chain_orders[eta] = [[0, W, (), self._order_at(W)]]
        while len(stages) <= i:  # built in order, each from the one before
            n, prev, cert, _ = stages[-1]
            n, alpha = _next_chain_point(eta, W, n - 1)
            step = self.exception_points(prev, alpha)
            cert = oset(cert + step) if cert and step else cert or step
            stages.append([n + 1, alpha, cert, None])
        return stages[i]

    def chain_order(self, eta: Ordinal, i: int) -> OmegaOrder:
        stage = self._stage(eta, i)
        if stage[3] is None:  # built on first use, after every stage before it
            stages, j = self._chain_orders[eta], i
            while stages[j - 1][3] is None:
                j -= 1
            for prev, s in zip(stages[j - 1:i], stages[j:i + 1]):
                outer = self._order_at(s[1])
                s[3] = _adjust(prev[3], outer, s[2]) if s[2] else outer
        return stage[3]

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
        below = self.exception_points(beta, top)
        collected.difference_update(below)
        # below is sorted, so the sort only merges the new points into it
        got = self._exc[beta, alpha] = tuple(sorted([*below, *collected], key=ORD_KEY))
        return got

    def exception_set(self, beta, alpha) -> ExceptionCert:
        beta, alpha = self._check(beta), self._check(alpha)
        if not beta < alpha:
            raise DomainError(f"exception_set needs beta < alpha, got {beta}, {alpha}")
        return ExceptionCert._make((beta, alpha, self.exception_points(beta, alpha)))

    def verify_exception(self, cert: ExceptionCert, samples: int, seed: int,
                         lower_order: OmegaOrder | None = None,
                         upper_order: OmegaOrder | None = None) -> VerifyResult:
        """Sampled check of the defining property: orders agree on pairs
        outside the certificate points.  Order overrides let callers probe
        deliberately mismatched orders (negative control); they are read
        through their public ``rank``.  A default order is read through the
        trusted ``_rank``: every candidate lies below cert.lower, which is
        <= cert.upper in any certificate ``exception_set`` makes (a hand-made
        one with lower above upper gets the checked ``rank``).  Each candidate
        is ranked at most once per order, on first use and in the order
        the samples ask, so the orders grow as with a rank per use.  Once
        every candidate has both ranks and no pair disagrees, no later
        sample can, so the check ends there, at any sample count.  Ranking
        the whole pool up front leaves verify's output as it is, but at
        upper w^3 a call with 0 or 1 samples then recurses past the frame
        limit where ranking lazily answers."""
        if samples < 0:
            raise DomainError(f"sample count must be >= 0, got {samples}")
        lo = lower_order.rank if lower_order is not None else self.order(cert.lower)._rank
        hi = upper_order if upper_order is not None else self.order(cert.upper)
        hi = hi._rank if upper_order is None and _as_ord(cert.lower) <= hi.bound else hi.rank
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
            # lo is ranked first, so with both hi ranks known all four are
            if hi_r[i] is None or hi_r[j] is None:
                for rank, got in asks:  # in the order x, y in lo, then x, y in hi
                    for k in i, j:
                        if got[k] is None:
                            got[k] = rank(candidates[k])
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
