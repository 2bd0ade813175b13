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
points and spans by formula in one step from the order below the whole
run of such limits.  It builds no chain order, and a stage record only
when ``exception_points`` scans its chain.

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

Any two of these orders agree off a finite set; ``exception_set``
returns a certified superset of the disagreement points, composed along
the same recursion that builds the orders.  Only limit uppers are
memoized: a successor lam+m reorders nothing below lam.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple

from . import tower
from .errors import DomainError, IterationCeilingError
from .ordinals import ONE, ORD_KEY, ZERO, Ordinal, W, _as_ord, enum_below, fund_seq, ordinal, oset
from .rng import Lcg
from .tower import BlockOrder, OmegaOrder, Orders, _next_chain_point, _steps_by_one

_POOL = 60  # verify_exception samples pairs of this many candidate points
_STAGES = 1000  # the stage bound of a new-lam chain


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
    Block 0 is empty; a subclass lists block i >= 1 with ``_block``, and
    ``_ranks`` holds the listed positions only."""

    def __init__(self, ctx: "AAOrders", eta: Ordinal):
        super().__init__(eta)
        self.ctx = ctx

    def _extend(self) -> None:
        i = len(self._ends) - 1
        if i:
            self._block(i)
        else:  # omega's order has nothing before 0
            self.append_block([])


class RunOrder(LimitOrder):
    """Order at a shape-A limit eta = P + w*d, read in one step from its
    base B, the order at b: P when P > 0, else w*2 (d >= 3) or w (d = 2).

    eta's columns are b, b+w, ..., lam = fund_seq(eta, 0), k of them.  Its
    order is B with row r, the points b + w*j + r in increasing j, put just
    before B's natural r-c (c = 0 at w*2, else -1).  With q(n) = B.rank(n),
    kept in one int array per base (``AAOrders._naturals``):

      * row r starts at q(r-c) + r*k, and b + w*j + r sits j after;
      * any other x sits at B.rank(x) + k*N, N the naturals n >= -c with
        q(n) <= B.rank(x), whose rows come before x;
      * stage i >= 1, block i, ends at e(i) = q(i) + (i+c+1)*k - 1, where
        lam+(i+c), row i+c's last point, opens stage i+1.

    ``_span`` and ``above`` invert this by bisecting the row starts and
    stage ends.  A read of stage t reads q through t, and is refused where
    stage t+k of B is when B is a limit order (``_reach``).  The first rank
    read lists blocks 1..1-c with rank entries, which later reads hit;
    later blocks are listed only for ``ensure_blocks``.
    """

    def __init__(self, ctx: "AAOrders", eta: Ordinal):
        super().__init__(ctx, eta)
        self._lam = fund_seq(eta, 0)
        self._c = -(self._lam is not W)
        self._first = 2 - self._c  # blocks 0..1-c hold rank entries
        *head, (_, d) = eta._terms
        self._head, self._j0 = tuple(head), 0 if head else 1 + (d > 2)  # b = P + w*j0
        self._k = d - self._j0
        self._b = Ordinal(self._head or ((ONE, self._j0),))
        self._base = ctx._order_at(self._b)
        self._q = ctx._naturals.setdefault(self._b, array("q"))
        self._shift = self._k if isinstance(self._base, LimitOrder) else 0  # w's has no stages

    def _column(self, j: int) -> Ordinal:
        j += self._j0
        return Ordinal(self._head + ((ONE, j),)) if j else self._b

    def _reach(self, t: int) -> None:
        (self._base if self._shift else self)._check_stage(t + self._shift)

    def _naturals(self, n: int) -> array:
        """q through n, each new entry's stage checked before B is asked
        for it; a read checks the stage it reads itself."""
        q = self._q
        for t in range(len(q), n + 1):
            self._reach(t)
            q.append(self._base._rank(ordinal(t)))
        return q

    def _end(self, i: int) -> int:
        return self._q[i] + (i + self._c + 1) * self._k - 1

    def _row(self, r: int) -> int:
        return self._q[r - self._c] + r * self._k

    def _stage_at(self, p: int, key=None) -> int:
        """The stage holding position p, the least i >= 1 with e(i) > p, or
        with key(i) > p for another key increasing with q; read through."""
        q, key = self._q, key or self._end
        while len(q) < 2 or key(len(q) - 1) <= p:
            self._naturals(len(q))
        i = bisect_right(range(1, len(q)), p, key=key) + 1
        self._reach(i)
        return i

    def _block(self, i: int) -> None:
        self._naturals(i)
        points = self._span(len(self._seq), self._end(i))
        (self.append_block if i < self._first else self.list_block)(points)

    def _rank(self, x: Ordinal) -> int:
        got = self._ranks.get(x)
        if got is not None:
            return got
        if not self._ranks:  # nothing listed yet
            self.ensure_blocks(self._first)
        c, k, ts = self._c, self._k, x._terms
        if not ts or ts[0][0] is ZERO:  # n, in stage n+1 after row n+c
            n = ts[0][1] if ts else 0
            self._reach(n + 1)
            return self._naturals(n)[n] + (n + 1 + c) * k
        if x._key >= self._b._key:  # b + w*j + r in row r: stage r-c, or r-c+1 at lam
            top, r = x.split()
            e, j = top._terms[-1]  # j = j0 + the column's index, when e is 1
            self._reach(r - c + (top is self._lam))
            return self._naturals(r - c)[r - c] + r * k + (j if e is ONE else 0) - self._j0
        rb = self._base._rank(x)  # B's refusals come first, as listing meets them
        return rb + (self._stage_at(rb, self._q.__getitem__) - 1) * k  # N rows before x

    def _nth(self, k: int) -> Ordinal:
        return self._span(k, k + 1)[0]

    def _span(self, a: int, b: int) -> list[Ordinal]:
        # past the listed points, row by row: B's points between rows r and
        # r+1 are B's q(r-c)..q(r+1-c)-1, shifted by (r+1)*k
        got = self._seq[a:b]
        p = max(a, len(self._seq))
        if p < b:
            k = self._k
            self._stage_at(b - 1)
            r = bisect_right(range(len(self._q) + self._c), p, key=self._row) - 1
            while p < b:
                if r >= 0 and p < (start := self._row(r)) + k:  # in row r
                    end = min(b, start + k)
                    got += [self._column(j).plus(r) for j in range(p - start, end - start)]
                else:
                    end = min(b, self._row(r + 1))
                    got += self._base._span(p - (r + 1) * k, end - (r + 1) * k)
                    r += 1
                p = end
        return got

    def above(self, beta: Ordinal, r: int) -> list[Ordinal]:
        if beta is not self._lam:
            return super().above(beta, r)
        # those >= lam are its column's points, one a stage from stage 1-c on
        return list(map(beta.plus, range(self._stage_at(r - 1) + self._c))) if r else []


class NewLamOrder(LimitOrder):
    """Order at a limit eta whose last exponent is >= 2 (w^2*k, w^3): its
    chain takes a new lam at every stage.  Block i is listed off the kept
    adjusted order o_i, and an unlisted point's rank is read off the chain
    (``_chain_rank``, by the rule in the module docstring) with no block
    listed, once: ``_read`` keeps it, so a repeat is one dict hit.  A hit
    skips no refusal: its read passed every stage check on the way, and
    stages only grow.  Stage k's kept order rewrites k+1 points, so the
    chain stops at stage ``_STAGES``, below the ceiling."""

    def __init__(self, ctx: "AAOrders", eta: Ordinal):
        super().__init__(ctx, eta)
        self._read: dict[Ordinal, int] = {}

    def _check_stage(self, i: int) -> None:
        if i >= _STAGES and _STAGES < tower.CEILING:  # else the ceiling is the one named
            raise IterationCeilingError(
                f"block construction at {self.eta} exceeded {_STAGES} stages")
        super()._check_stage(i)

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
    orders at lower and upper may disagree.  The constructor refuses lower
    above upper and normalizes points by ``oset``; ``exception_set`` hands
    over ``exception_points``' tuple, checked and normalized already,
    through ``_make``."""

    __slots__ = ()

    def __new__(cls, lower, upper, points):
        _ordered(lower, upper)
        return super().__new__(cls, lower, upper, oset(points))

    def to_dict(self) -> dict:
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "points": [str(p) for p in self.points],
        }


def _ordered(lower, upper) -> None:
    if _as_ord(lower) > _as_ord(upper):
        raise DomainError(f"a certificate needs lower <= upper, got {lower}, {upper}")


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
        self._naturals: dict[Ordinal, array] = {}  # per run-order base, its ranks of 0, 1, ...

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
        is the previous plus 1).  A stage past the ceiling is refused before
        it is built, as listing its block would be."""
        stages = self._chain_orders.get(eta)
        if stages is None:
            stages = self._chain_orders[eta] = [[0, W, (), self._order_at(W)]]
        while len(stages) <= i:  # built in order, each from the one before
            self._order_at(eta)._check_stage(len(stages))
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
        deliberately mismatched orders (negative control) through their
        public ``rank``.  A certificate made past the constructor with lower
        above upper is refused as the constructor refuses it, so every
        candidate, below cert.lower, lies in both default orders, read
        through the trusted ``_rank``.  Each candidate is ranked at most
        once per order, when a sample first asks, so the orders grow as
        with a rank per use; once every candidate has both ranks and no
        pair disagrees, the check ends, at any sample count.  Ranking the
        whole pool up front keeps verify's output, but at upper w^3 a call
        with 0 or 1 samples then recurses past the frame limit."""
        _ordered(cert.lower, cert.upper)
        if samples < 0:
            raise DomainError(f"sample count must be >= 0, got {samples}")
        lo = lower_order.rank if lower_order is not None else self.order(cert.lower)._rank
        hi = upper_order.rank if upper_order is not None else self.order(cert.upper)._rank
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
