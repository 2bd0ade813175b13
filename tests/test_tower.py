"""Tower well-orders: rank/nth, turnstile, closure and blocks."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from ordtower import (
    AAOrders,
    CapExceededError,
    DomainError,
    IterationCeilingError,
    Lcg,
    ListOrder,
    Ordinal,
    Tower,
    W,
    add,
    difference,
    enum_below,
    fund_seq,
    ordinal,
    parse_ordinal,
)
from ordtower.ordinals import ORD_KEY
from ordtower.tower import BlockOrder, PrependOrder

p = parse_ordinal
terms = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 300)), max_size=3)


def cnf(ts):
    coeffs = dict(ts)
    return Ordinal.from_terms([(ordinal(e), coeffs[e]) for e in sorted(coeffs, reverse=True)])


@given(terms.map(cnf), terms.map(cnf), st.integers(1, 400))
def test_prepend_offsets_are_differences_from_lam(a, x, m):
    # x = lam+j, j < m, ranks m-1-j; x >= lam+m (lam+w or more too) is not
    # in the order; x < lam ranks m plus its inner rank
    lam = a.split()[0]
    o = PrependOrder(ListOrder([x] if x < lam else []), lam, m)
    d = difference(x, lam) if x >= lam else None
    j = None if d is None else d.natural() if d.is_natural() else m
    assert (x in o) == (j is None or j < m)
    if j is None:
        assert o.rank(x) == m
    elif j < m:
        assert o.rank(x) == m - 1 - j
    else:
        with pytest.raises(DomainError):
            o.rank(x)
    assert o.rank(add(lam, m // 2)) == m - 1 - m // 2
    assert o.bound == add(lam, m)
    assert o.nth(0) == add(lam, m - 1) and o.span(0, m)[::-1] == [add(lam, j) for j in range(m)]
    assert o.span(m // 2, m) == [add(lam, j) for j in range(m - 1 - m // 2, -1, -1)]


def test_rank_finite(tower):
    # <^5 lists 4,3,2,1,0
    assert [tower.rank(5, x) for x in range(5)] == [4, 3, 2, 1, 0]
    assert tower.rank(5, 2) == 2
    assert tower.nth(5, 0) == ordinal(4)
    with pytest.raises(DomainError):
        tower.nth(5, 5)


def test_rank_at_omega(tower):
    for n in range(20):
        assert tower.rank(W, ordinal(n)) == n
        assert tower.nth(W, n) == ordinal(n)


def test_successor_prepend(tower):
    assert tower.rank(p("w+1"), W) == 0
    assert tower.nth(p("w+1"), 3) == ordinal(2)
    # rank through a successor adds one
    for x in [0, 3, 7]:
        assert tower.rank(p("w+1"), x) == 1 + tower.rank(W, x)


def test_successor_law_sampled(tower):
    rng = Lcg(7)
    for _ in range(200):
        alpha = tower.nth(p("w^2"), rng.below(40))
        succ = add(alpha, 1)
        assert tower.rank(succ, alpha) == 0
        # positions past 0 land below alpha; finite alpha has only alpha of them
        span = 20
        if alpha.is_natural():
            if alpha.is_zero():
                continue
            span = min(span, alpha.natural())
        x = tower.nth(succ, 1 + rng.below(span))
        assert tower.rank(succ, x) == 1 + tower.rank(alpha, x)


def test_turnstile_examples(tower):
    assert tower.turnstile(3, 0, 2)
    assert tower.turnstile(p("w+1"), 3, W)
    assert not tower.turnstile(2, 5, 0)


def test_close_examples(tower):
    assert tower.close(3, [0]) == (ordinal(0), ordinal(1), ordinal(2))
    assert tower.close(0, []) == ()
    assert tower.close(W, [2, 5]) == tuple(ordinal(i) for i in range(6))


def test_close_validates(tower):
    with pytest.raises(DomainError):
        tower.close(3, [5])
    with pytest.raises(CapExceededError):
        tower.close(p("w^3+1"), [0])


def test_blocks_at_omega(tower):
    assert tower.blocks(W, 0) == ()
    assert tower.blocks(W, 3) == tuple(ordinal(i) for i in range(4))
    for n in range(20):
        assert set(tower.blocks(W, n)) < set(tower.blocks(W, n + 1))


def test_blocks_requires_limit(tower):
    with pytest.raises(DomainError):
        tower.blocks(p("w+1"), 2)


def test_blocks_are_rank_prefixes(tower):
    # every block is an initial segment of the order at its limit
    for s in ["w", "w*2", "w^2"]:
        eta = p(s)
        for n in range(1, 11):
            blk = tower.blocks(eta, n)
            ranks = sorted(tower.rank(eta, x) for x in blk)
            assert ranks == list(range(len(blk)))


def test_blocks_frozen_values():
    # blocks 1..8 at three limits: sizes and a sha256 of their literals
    want = {
        "w*2": ([3, 4, 5, 7, 8, 10, 11, 13],
                "3b5daef76415c2b45d5379b27f1731e1c0165446d39db6dea2ce2b61f67b2985"),
        "w*3": ([4, 5, 6, 7, 8, 13, 14, 15],
                "59fb16b0f777a6f3ec13dade256f5958fbda56b8e432a4586435aaba98a87dbf"),
        "w^2": ([3, 4, 5, 24, 42, 76, 269, 527],
                "73eccad792a99483dec8ac29e07d284460f3aac06f25fadff8a759d5b27fb161"),
    }
    for s, (sizes, digest) in want.items():
        eta, t = p(s), Tower()
        bs = [t.blocks(eta, n) for n in range(1, 9)]
        assert [len(b) for b in bs] == sizes
        text = ";".join(",".join(map(str, b)) for b in bs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # the last chain point is the largest point of its block and the
        # last one ordered
        for b in bs:
            assert t.nth(eta, len(b) - 1) == b[-1]


def test_order_type_omega_gap_free(tower):
    # {x : rank < k} has exactly k elements, witnessed through nth
    for s in ["w*2", "w^2+w"]:
        eta = p(s)
        seen = [tower.nth(eta, k) for k in range(50)]
        assert len(set(seen)) == 50
        assert [tower.rank(eta, x) for x in seen] == list(range(50))


def test_rank_frozen_values(tower):
    # pinned by executing the construction; stable across refactors
    assert tower.rank(p("w*2"), p("w+3")) == 6
    assert tower.rank(p("w*5"), p("w*4+2")) == 7
    assert tower.rank(p("w^2"), p("w*3+1")) == 14


def test_trichotomy_sampled(tower):
    rng = Lcg(11)
    for _ in range(200):
        alpha = tower.nth(p("w^2+w*5+1"), rng.below(60))
        if alpha < ordinal(2):
            continue
        span = 40 if not alpha.is_natural() else min(40, alpha.natural())
        x, y = tower.nth(alpha, rng.below(span)), tower.nth(alpha, rng.below(span))
        if x == y:
            continue
        rx, ry = tower.rank(alpha, x), tower.rank(alpha, y)
        assert (rx < ry) != (ry < rx)
        assert tower.nth(alpha, rx) == x and tower.nth(alpha, ry) == y


def test_triple_not_shattered(tower):
    # some arrangement of any distinct triple is ordered by the max's order
    rng = Lcg(13)
    for _ in range(100):
        vals = {tower.nth(p("w^2"), rng.below(50)) for _ in range(3)}
        if len(vals) < 3:
            continue
        a, b, c = sorted(vals)
        assert tower.turnstile(c, a, b) or tower.turnstile(c, b, a)


def test_cap_enforced():
    t = Tower()
    with pytest.raises(CapExceededError, match=r"^w\^3\+1 exceeds the cap w\^3$"):
        t.rank(p("w^3+1"), W)
    assert t.rank(p("w^3"), p("w^2")) >= 0


def test_rank_domain(tower):
    with pytest.raises(DomainError):
        tower.rank(W, W)
    with pytest.raises(DomainError):
        tower.nth(W, -1)


def test_orders_pinned_across_levels():
    # the first 30 points (all of them below 30) of 200 orders below
    # w^2+w*5+1, finite, successor and limit alike; sha256 captured before
    # the tower and the omega layer shared one order implementation
    eta, t = p("w^2+w*5+1"), Tower()
    alphas, i = [], 0
    while len(alphas) < 200:
        alpha = enum_below(eta, i)
        i += 1
        if alpha >= ordinal(2):
            alphas.append(alpha)
    assert {a.is_natural() for a in alphas} == {True, False}
    assert any(a.is_limit() for a in alphas)
    lines = []
    for alpha in alphas:
        n = 30 if not alpha.is_natural() else min(30, alpha.natural())
        lines.append(f"{alpha}:" + ",".join(str(t.nth(alpha, k)) for k in range(n)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "24aad7c9091c4e2d89bda604c434ae21c76a790faf5e877890cfe944bcd5c634"


def test_every_stage_pinned():
    # _seq and _ends of every limit order a fresh tower grows for five deep
    # requests, each stage of them; sha256 captured before shape-A stages
    # over a repeated lam were read off lam's order and the shared tail
    lines = []
    for s, k in [("w", 4000), ("w*13", 3000), ("w^2", 1600), ("w^2+w*2", 800),
                 ("w^2*3+w*4", 300)]:
        t = Tower()
        t.nth(p(s), k)
        limits = [a for a, o in t._orders.items() if isinstance(o, BlockOrder)]
        for eta in sorted(limits, key=ORD_KEY):
            o = t._orders[eta]
            lines.append(f"{s} {eta} {','.join(map(str, o._seq))} {','.join(map(str, o._ends))}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "154383be17f6ee5dfbe4e065d64e1f5c5385b38cd385175f66e04cd6d131aa56"


def test_growth_builds_no_order_per_chain_point():
    # the chain points lam+n of shape-A stages come off the tail kept per
    # lam: growing w^2 keeps 0, w^2 and the limit orders w .. w*8, not an
    # order per chain point (528 of them)
    t = Tower()
    t.nth(p("w^2"), 300)
    assert len(t._orders) <= 12
    # a closure at a successor reads the tail without building its order;
    # the order, built on demand, lists the same tail from the top down
    tail = [p("w*3").plus(j) for j in range(40)]
    assert t.close(p("w*3+40"), []) == tuple(tail)
    assert p("w*3+40") not in t._orders
    o = t.order(p("w*3+40"))
    assert isinstance(o, PrependOrder)
    assert o.span(0, 40)[::-1] == tail and o.prefix(42)[40:] == t.order(p("w*3")).prefix(2)


@pytest.mark.parametrize("context, alpha, read", [
    (Tower, "w+100000", lambda o: o.prefix(3)),
    (AAOrders, "w^2+100000", lambda o: o.span(0, 2)),
], ids=["tower", "aa"])
def test_a_span_far_above_lam_makes_only_its_points(context, alpha, read, monkeypatch):
    # a successor order's span makes the tail points it lists, not the
    # 10^5 tail points from lam up to them
    o = context().order(p(alpha))
    calls, plus = [0], Ordinal.plus

    def counting(self, m):
        calls[0] += 1
        return plus(self, m)

    monkeypatch.setattr(Ordinal, "plus", counting)
    got = read(o)
    assert calls[0] <= 3
    lam, m = p(alpha).split()
    assert got == [lam.plus(m - 1 - k) for k in range(len(got))]


def test_growth_over_tails_grown_by_successor_orders():
    # closures at successors grow the tails at w .. w*3 past any chain
    # point first; the limit orders grown after them match a fresh tower's
    warm, fresh = Tower(), Tower()
    for s in ["w+90", "w*2+90", "w*3+90"]:
        warm.close(p(s), [])
    for t in (warm, fresh):
        t.nth(p("w^2"), 300)
        t.nth(p("w*4"), 60)
    assert warm._order == fresh._order and warm._chain == fresh._chain


def test_shape_a_enumeration_trails_the_chain():
    # the same-lam rule steps the chain point by one: at stage n >= 1 it is
    # lam+m0 with m0 >= n-1 (m0 = n at w), and e = lam+j never lies past it
    for s in ["w", "w*2", "w*7", "w^2+w", "w^2*2+w*3"]:
        eta = p(s)
        lam = fund_seq(eta, 0)
        for n in range(1, 600):
            e = enum_below(eta, n)
            if e >= lam:
                assert e.split()[1] <= (n if lam == ordinal(0) else n - 1), (s, n)


def test_tower_suite_builds_no_omega_context(monkeypatch):
    from ordtower import verify

    def unused(*args, **kwargs):
        raise AssertionError("AAOrders built for the tower suite")

    monkeypatch.setattr(verify, "AAOrders", unused)
    assert all(r.passed for r in verify.run_suites(["tower"]))


class FullCloseTower(Tower):
    """The block rule as first written: every stage closes all placed points."""

    def _grow(self, eta):
        o = self._orders[eta]
        order = o._seq
        e = enum_below(eta, len(o._ends) - 1)
        mx = e if not order or e > order[-1] else order[-1]
        k = 0
        while not fund_seq(eta, k) > mx:
            k += 1
        alpha_n = fund_seq(eta, k)
        new = [x for x in self.close(alpha_n, order + [e]) if x not in o._ranks]
        o.append_block(new + [alpha_n])


def test_grow_matches_full_close_rule(monkeypatch):
    # the first blocks at each limit, as many as the inherent growth of
    # closed sets allows: at w^3 the fifth block already needs more than
    # CEILING stages at w^2*4+w*13
    cases = [("w", 60), ("w*2", 60), ("w*3", 60), ("w*5", 60), ("w^2+w*2", 30),
             ("w^2+w*3", 30), ("w^2", 8), ("w^2*2", 8), ("w^3", 4)]
    want = {}
    for s, n in cases:
        ref = FullCloseTower().order(p(s))
        want[s] = ref.ensure_blocks(n), ref._ends[:n + 1]
    covered = []  # the input size of each cover() call the stages make
    cover = BlockOrder.cover

    def counting(self, xs):
        covered.append(len(xs))
        return cover(self, xs)

    monkeypatch.setattr(BlockOrder, "cover", counting)
    stages = 0
    for s, n in cases:
        eta, t = p(s), Tower()
        assert t.order(eta).ensure_blocks(n) == want[s][0], s
        assert t.order(eta)._ends[:n + 1] == want[s][1], s
        stages += sum(len(ends) - 1 for ends in t._chain.values())
    # a stage above a new lam covers every placed point, a repeated lam only e
    assert 0 < sum(k > 1 for k in covered) < stages
    assert 1 in covered


def test_grow_work_is_linear_in_the_order(monkeypatch):
    # cover() receives the whole placed order only when a stage starts above
    # a new lam; covering it at every stage would make this sum quadratic in
    # the order length (at w nothing lies below lam, so it stays 0)
    covered = [0]
    cover = BlockOrder.cover

    def counting(self, xs):
        covered[0] += len(xs)
        return cover(self, xs)

    monkeypatch.setattr(BlockOrder, "cover", counting)
    for s, k in [("w^2", 1600), ("w", 4000)]:
        covered[0] = 0
        t = Tower()
        t.nth(p(s), k)
        assert covered[0] <= 2 * len(t._order[p(s)]), s


def test_reach_at_the_default_cap():
    # the order at w^3 lists its first 7 points; the eighth needs the
    # order at w^2*4+w*13 past CEILING blocks
    t = Tower()
    assert t.nth(p("w^3"), 6) == p("w^2*4")
    with pytest.raises(IterationCeilingError,
                       match=r"block construction at w\^2\*4\+w\*13 exceeded 20000 stages"):
        t.nth(p("w^3"), 7)
