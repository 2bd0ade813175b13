"""Almost-agreeing omega-orders: prefixes, certificates, adjustment."""

import hashlib
import importlib.util
import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ordtower import omega, verify
from ordtower import (
    AAOrders,
    CanonicalOmega,
    CapExceededError,
    DomainError,
    ExceptionCert,
    IterationCeilingError,
    Lcg,
    ListOrder,
    Tower,
    VerifyResult,
    W,
    add,
    adjust_one,
    enum_below,
    fund_seq,
    ordinal,
    oset,
    parse_ordinal,
)
from ordtower.omega import PatchedOrder
from ordtower.tower import _steps_by_one


def strs(xs):
    return [str(x) for x in xs]


def test_canonical_omega():
    o = CanonicalOmega()
    assert strs(o.prefix(4)) == ["0", "1", "2", "3"]
    assert o.rank(7) == 7
    assert o.nth(3) == 3
    assert 5 in o and W not in o
    with pytest.raises(DomainError):
        o.rank(W)
    with pytest.raises(DomainError):
        o.nth(-1)


def test_prepend_order_tail_first(orders, p):
    o = orders.order(p("w+3"))
    assert strs(o.prefix(6)) == ["w+2", "w+1", "w", "0", "1", "2"]
    assert o.rank(p("w+2")) == 0
    assert o.rank(0) == 3
    assert o.nth(2) == W
    with pytest.raises(DomainError):
        o.rank(p("w+3"))


def test_limit_prefixes_frozen(orders, p):
    assert strs(orders.order(p("w*2")).prefix(8)) == [
        "w", "0", "w+1", "1", "w+2", "2", "w+3", "3"]
    assert strs(orders.order(p("w*3")).prefix(8)) == [
        "w", "0", "w+1", "w*2", "1", "w+2", "w*2+1", "2"]
    assert strs(orders.order(p("w^2")).prefix(12)) == [
        "w", "0", "w+1", "w*2", "1", "w+2", "w*2+1", "w*3", "w*3+1", "2",
        "w+3", "w*2+2"]


def test_order_is_bijective_prefix(orders, p):
    for name in ["w", "w+1", "w*2", "w*2+3", "w^2", "w^2+w"]:
        alpha = p(name)
        o = orders.order(alpha)
        seen = o.prefix(40)
        assert len(set(seen)) == 40
        for k, x in enumerate(seen):
            assert x < alpha
            assert o.rank(x) == k
            assert o.nth(k) == x


def test_order_covers_every_point(orders, p):
    # each gamma below alpha eventually appears: rank is a total inverse
    alpha = p("w^2")
    for i in range(40):
        x = enum_below(alpha, i)
        assert orders.nth(alpha, orders.rank(alpha, x)) == x


def test_successor_order_far_above_limit(p):
    # rank, nth and span at w+10^8 read offsets from w; no tail is materialised
    orders = AAOrders()
    alpha = p("w+100000000")
    assert orders.rank(alpha, W) == 99999999
    assert orders.rank(alpha, p("w+99999999")) == 0
    assert orders.rank(alpha, 7) == 100000007
    assert str(orders.nth(alpha, 0)) == "w+99999999"
    assert orders.nth(alpha, 100000003) == 3
    o = orders.order(alpha)
    assert o.bound == alpha
    assert p("w+99999999") in o and alpha not in o and p("w*2") not in o
    with pytest.raises(DomainError):
        o.rank(alpha)
    with pytest.raises(DomainError):
        o.rank(p("w*2"))
    assert o.span(99999998, 100000002) == [p("w+1"), W, 0, 1]


@pytest.mark.parametrize("call, kind, message", [
    (lambda ctx, p: ctx.rank(p("w*2"), p("w*2")), DomainError,
     "rank needs x < alpha, got x=w*2, alpha=w*2"),
    (lambda ctx, p: ctx.rank(p("w+1"), p("w*2+3")), DomainError,
     "rank needs x < alpha, got x=w*2+3, alpha=w+1"),
    (lambda ctx, p: ctx.nth(p("w*2"), -1), DomainError, "rank index must be >= 0, got -1"),
    (lambda ctx, p: ctx.rank(p("w^3+1"), 0), CapExceededError,
     "w^3+1 exceeds the cap w^3"),
    (lambda ctx, p: ctx.nth(p("w^3*2"), 0), CapExceededError,
     "w^3*2 exceeds the cap w^3"),
], ids=["rank-at-alpha", "rank-above-alpha", "nth-negative", "rank-past-cap", "nth-past-cap"])
@pytest.mark.parametrize("family", [Tower, AAOrders])
def test_both_order_families_give_the_same_rank_nth_errors(family, call, kind, message, p):
    with pytest.raises(kind) as got:
        call(family(), p)
    assert str(got.value) == message


def test_rank_domain_checks(orders, p):
    with pytest.raises(DomainError):
        orders.rank(p("w*2"), p("w*2"))
    for call in (lambda: orders.order(5), lambda: orders.rank(5, 0), lambda: orders.nth(5, 0)):
        with pytest.raises(DomainError, match="^orders start at w, got 5$"):
            call()
    with pytest.raises(CapExceededError):
        AAOrders().order(p("w^3+1"))


@pytest.mark.parametrize("name", ["w*2", "w^2", "w^2+w", "w^3"])
def test_chain_starts_at_omega(orders, p, name):
    # omega, then the fundamental sequence values above it; these limits
    # have 1, 2, 0 and 1 values at or below omega
    eta = p(name)
    want = [W] + [v for v in (fund_seq(eta, n) for n in range(8)) if v > W]
    assert [orders.chain_order(eta, i).bound for i in range(6)] == want[:6]
    assert isinstance(orders.chain_order(eta, 0), CanonicalOmega)


def test_chain_orders_extend_each_other(orders, p):
    # stage i+1 restricted to stage i's domain is exactly stage i
    eta = p("w^2")
    for i in range(3):
        a = orders.chain_order(eta, i)
        b = orders.chain_order(eta, i + 1)
        xs = a.prefix(25)
        for m in range(len(xs)):
            for n_ in range(m + 1, len(xs)):
                x, y = xs[m], xs[n_]
                assert (a.rank(x) < a.rank(y)) == (b.rank(x) < b.rank(y))


def test_limit_blocks_shape(orders, p):
    blocks = orders.limit_blocks(p("w*2"), 4)
    assert blocks[0] == ()
    flat = [x for b in blocks for x in b]
    assert flat == orders.order(p("w*2")).prefix(len(flat))
    with pytest.raises(DomainError):
        orders.limit_blocks(p("w+3"), 2)
    with pytest.raises(DomainError):
        orders.limit_blocks(W, 2)


def test_limit_blocks_refuses_a_negative_index_like_tower_blocks(orders, p):
    # one block-index check serves both families, after their limit checks
    for call in (lambda: orders.limit_blocks(p("w*2"), -1), lambda: Tower().blocks(p("w*2"), -1)):
        with pytest.raises(DomainError, match="^block index must be >= 0, got -1$"):
            call()
    with pytest.raises(DomainError, match="^w\\+3 is not a limit above w$"):
        orders.limit_blocks(p("w+3"), -1)
    assert orders.limit_blocks(p("w*2"), 0) == []


def test_exception_set_frozen_values(orders, p):
    cases = {
        ("w", "w*2"): [],
        ("w", "w^2"): [],
        ("w*2", "w*3"): ["0", "w", "w+1"],
        ("w*3", "w^2"): ["0", "1", "w", "w+1", "w+2", "w*2", "w*2+1"],
        ("w^2", "w^2*2"): ["0", "w", "w+1", "w*2"],
        ("w+3", "w^2+w*2"): ["0", "1", "2", "w", "w+1", "w+2"],
    }
    for (lo, hi), want in cases.items():
        cert = orders.exception_set(p(lo), p(hi))
        assert strs(cert.points) == want
        assert cert.lower == p(lo) and cert.upper == p(hi)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_limit_blocks_and_certificates_pinned(p):
    # sizes and sha256 of the first 40 blocks and of six certificates
    orders = AAOrders()
    blocks = {
        "w^2": (1561, "e7bf340c51661e97c2db4a7c84a998e43d9dfe1a377d3237b59c5af78f1a0239"),
        "w^2+w*2": (1677, "b192fdfa4749260f5fed80a212fc41cad43fbe6aa9e8c3f6301555ef0706b796"),
        "w^2*2": (3082, "5ff85e61ea27c4850236860a33c69e1c5302ec52ac67503f06a7ace2d26c529e"),
    }
    for name, (size, want) in blocks.items():
        bs = orders.limit_blocks(p(name), 40)
        assert sum(map(len, bs)) == size
        assert digest(";".join(",".join(map(str, b)) for b in bs)) == want
    certs = {
        ("w*2", "w^2"): (3, "5f03773bbed4598ad0ea8b0f88e52fd980bbbed859c90044a35af5caec82c8f1"),
        ("w*3+1", "w^2+w"): (11, "601234647f180b20cf54f9d9dc5c902c92d6d69ec216f0dc8f7b9dd7667d3db3"),
        ("w^2", "w^2*2"): (4, "36fa8ca5261052aee847fdf404053b20d95e6400b3d032be3969f160b846d626"),
        ("w+5", "w^2+w*3"): (10, "51a2aa86dc24fb0f9ff52ba3affe1572596573b6e681b757bf93ad0c863d1838"),
        ("w*4", "w^2+5"): (13, "f897c1cc4c1e6f3eef9fd4d89b331bbe43ffb006faf2097cf25c328e1d50ed06"),
        ("w^2+w", "w^2*2"): (11, "61ac39210221272e077230d8fd903952a07af03864ae61f4c509258c7b4c4683"),
    }
    for (lo, hi), (size, want) in certs.items():
        pts = orders.exception_set(p(lo), p(hi)).points
        assert len(pts) == size
        assert digest(",".join(map(str, pts))) == want


def test_exception_points_are_memoized_at_limit_uppers_only(p):
    # a successor lam+m reorders nothing below lam: its points are lam's
    orders = AAOrders()
    orders.exception_set(p("w*2"), p("w^2+w*2"))  # its chain steps are successors
    assert orders._exc and all(hi.is_limit() for _, hi in orders._exc)
    lam = p("w^2+w")
    for m in 1, 2, 3:
        alpha = lam.plus(m)
        for beta in ["w*2", "w*3+1", "w^2", "w^2+w", "w^2+w+1", "w^2+w+2"]:
            beta = p(beta)
            want = orders.exception_points(beta, lam) if beta < lam else ()
            assert orders.exception_points(beta, alpha) == want
    assert all(hi.is_limit() for _, hi in orders._exc)


def test_exception_set_validation(orders, p):
    with pytest.raises(DomainError):
        orders.exception_set(p("w*2"), p("w*2"))
    with pytest.raises(DomainError):
        orders.exception_set(p("w^2"), p("w*2"))
    with pytest.raises(DomainError):
        orders.exception_set(3, p("w*2"))


def test_exception_points_below_lower(orders, p):
    rng = Lcg(12)
    pool = [p(s) for s in ["w*2", "w*3", "w*3+2", "w^2", "w^2+w", "w^2*2"]]
    for _ in range(20):
        lo = pool[rng.below(len(pool))]
        hi = pool[rng.below(len(pool))]
        if not lo < hi:
            continue
        cert = orders.exception_set(lo, hi)
        assert all(x < lo for x in cert.points)
        assert list(cert.points) == sorted(set(cert.points))


def test_verify_exception_positive(orders, p):
    pairs = [("w", "w^2"), ("w*2", "w^2"), ("w*3", "w^2*2"), ("w^2", "w^2+w*4")]
    for lo, hi in pairs:
        cert = orders.exception_set(p(lo), p(hi))
        res = orders.verify_exception(cert, 150, seed=5)
        assert bool(res) and res.witness is None


def test_verify_exception_negative_control(orders, p):
    # a reversed order disagrees with the canonical one on every pair
    cert = ExceptionCert(lower=W, upper=p("w*2"), points=())
    wrong = ListOrder(list(reversed(range(400))))
    res = orders.verify_exception(cert, 50, seed=9, lower_order=wrong,
                                  upper_order=CanonicalOmega())
    assert not res
    x, y = res.witness
    assert x != y


def test_verify_exception_pool_exhaustion(orders):
    # below 1 the one candidate point can never host a sample pair; the
    # overrides allow a lower bound the context itself would refuse
    cert = ExceptionCert(lower=ordinal(1), upper=W, points=())
    with pytest.raises(IterationCeilingError, match="sample pool exhausted"):
        orders.verify_exception(cert, 10, seed=1, lower_order=ListOrder([0]),
                                upper_order=orders.order(W))


def test_verify_exception_refuses_a_hand_made_certificate_with_lower_above_upper(p):
    # a default order is read trusted only when every candidate, being below
    # cert.lower, lies in it; otherwise the checked rank refuses, as it always did
    for upper in ["w*2", "w^2"]:
        cert = ExceptionCert(lower=p("w^2+w"), upper=p(upper), points=())
        with pytest.raises(DomainError) as got:
            AAOrders().verify_exception(cert, 50, seed=1)
        assert str(got.value) == f"w^2+6 is not below {upper}"


def test_cert_json_roundtrip(orders, p):
    cert = orders.exception_set(p("w*2"), p("w^2"))
    assert json.loads(json.dumps(cert.to_dict(), sort_keys=True)) == {
        "lower": "w*2", "upper": "w^2", "points": [str(x) for x in cert.points]}


def test_adjust_one_empty_cert_is_identity():
    inner = ListOrder([1, 0])
    outer = ListOrder([0, 1, 2])
    assert adjust_one(inner, outer, ()) is outer


def test_adjust_one_hand_example():
    inner = ListOrder([1, 0])
    outer = ListOrder([0, 1, 2])
    got = adjust_one(inner, outer, [ordinal(0)])
    assert strs([got.nth(k) for k in range(3)]) == ["1", "0", "2"]
    assert got.rank(1) == 0 and got.rank(0) == 1 and got.rank(2) == 2
    assert 2 in got and ordinal(5) not in got
    # 1's anchor is 0, itself moved; 1 goes right after 0's new slot
    got = adjust_one(ListOrder([0, 1, 2, 3]), ListOrder([0, 1, 2, 3, 4]),
                     [ordinal(0), ordinal(1)])
    assert strs(got.prefix(5)) == ["0", "1", "2", "3", "4"]
    assert [got.rank(k) for k in range(5)] == [0, 1, 2, 3, 4]


def test_adjust_one_reads_int_certificate_points_as_ordinals():
    # a certificate made with int points adjusts like one made with ordinals
    inner, outer = ListOrder([1, 0]), ListOrder([0, 1, 2])
    for points in [(0,), [0], [ordinal(0)]]:
        got = adjust_one(inner, outer, ExceptionCert(lower=W, upper=W, points=points))
        assert strs(got.prefix(3)) == ["1", "0", "2"]
    assert ExceptionCert(lower=W, upper=W, points=(3, 0, 3)).points == (ordinal(0), ordinal(3))


@st.composite
def adjust_cases(draw):
    # inner: a permutation of 0..n-1; outer: those points and up to 3 more,
    # in any order; the certificate: the inner points outside a common
    # subsequence of the two orders
    n = draw(st.integers(1, 6))
    inner = draw(st.permutations(range(n)))
    outer = draw(st.permutations(range(n + draw(st.integers(0, 3)))))
    keep = draw(st.sets(st.sampled_from(inner)))
    common, last = set(), -1
    for x in inner:
        if x in keep and outer.index(x) > last:
            common.add(x)
            last = outer.index(x)
    return inner, outer, [ordinal(x) for x in inner if x not in common]


@given(adjust_cases())
def test_adjusted_order_extends_any_inner(case):
    inner, outer, points = case
    got = adjust_one(ListOrder(inner), ListOrder(outer), points)
    assert sorted(inner, key=got.rank) == list(inner)
    listed = [got.nth(k) for k in range(len(outer))]
    assert sorted(listed) == sorted(map(ordinal, outer))
    assert [got.rank(x) for x in listed] == list(range(len(outer)))
    assert got.prefix(len(outer)) == listed


def test_adjust_one_foreign_point():
    inner = ListOrder([1, 0])
    outer = ListOrder([0, 1, 2])
    with pytest.raises(DomainError):
        adjust_one(inner, outer, [ordinal(2)])


def test_adjusted_order_extends_inner(orders, p):
    # the defining property on a larger instance
    inner = orders.order(p("w*2"))
    outer = orders.order(p("w*3"))
    cert = orders.exception_set(p("w*2"), p("w*3"))
    got = adjust_one(inner, outer, cert)
    xs = inner.prefix(30)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            x, y = xs[i], xs[j]
            assert (got.rank(x) < got.rank(y)) == (inner.rank(x) < inner.rank(y))
    # and it still enumerates everything below w*3
    ys = got.prefix(40)
    assert len(set(ys)) == 40
    for k, y in enumerate(ys):
        assert got.rank(y) == k


def test_list_order_duplicates():
    with pytest.raises(DomainError):
        ListOrder([1, 1])


def _order_of_each_class(name):
    """A fresh order of each OmegaOrder class, the limit orders in both phases."""
    tower, aa = Tower(), AAOrders()
    return {
        "list": lambda: ListOrder([3, 0, W, 2, 1]),
        "finite": lambda: tower.order(7),
        "prepend": lambda: tower.order(parse_ordinal("w*2+5")),
        "block": lambda: tower.order(parse_ordinal("w*3")),
        "canonical": CanonicalOmega,
        "run": lambda: aa.order(parse_ordinal("w*2")),
        "filter": lambda: aa.order(parse_ordinal("w^2")),
        "aa-prepend": lambda: aa.order(parse_ordinal("w^2+3")),
        "patched": lambda: adjust_one(ListOrder([1, 0]), aa.order(parse_ordinal("w*2")), [0]),
    }[name]()


_PROBES = [0, 4, *map(parse_ordinal, [
    "0", "4", "w", "w+3", "w+5", "w*2", "w*2+4", "w*2+5", "w*3", "w^2", "w^2+2", "w^2+3", "w^3"])]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["list", "finite", "prepend", "block", "canonical", "run", "filter",
                        "aa-prepend", "patched"]),
       st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60), st.sampled_from(_PROBES)),
                min_size=1, max_size=4))
@example("finite", [(0, 6, parse_ordinal("4"))])
def test_every_order_class_derives_its_reads_from_span_and_bound(name, asks):
    # span lists nth's points, prefix and above read span, and membership
    # is x < bound; asked in any order on a fresh order.  The public rank
    # and nth are inverse on the order, and refuse what lies outside it
    # with one message per kind: every bounded class names its bound, and
    # an order of finite type refuses positions past its end
    o = _order_of_each_class(name)
    top = {"list": 5, "finite": 7}.get(name, 61)
    outside = "is not in this order" if o.bound is None else f"is not below {o.bound}"
    for a, b, x in asks:
        a, b = sorted((a % top, b % top))
        assert o.span(a, b) == [o.nth(i) for i in range(a, b)]
        # rank reads no span, so it tells a span and an nth that agree wrongly apart
        assert [o.rank(o.nth(i)) for i in range(a, b)] == list(range(a, b))
        assert o.prefix(b) == o.span(0, b)
        assert o.above(parse_ordinal(str(x)), b) == [y for y in o.prefix(b) if y >= x]
        if o.bound is not None:
            assert (x in o) == (x < o.bound)
        else:
            assert (x in o) == (x in o.prefix(top))
        if x in o:
            assert o.nth(o.rank(x)) == x
        else:
            with pytest.raises(DomainError) as got:
                o.rank(x)
            assert str(got.value) == f"{x} {outside}"
    bad = [(lambda: o.nth(-1), "rank index must be >= 0, got -1"),
           (lambda: o.span(-1, 3), "rank index must be >= 0, got -1"),
           (lambda: o.rank(1.5), "not an ordinal: 1.5")]
    if name == "finite":
        bad += [(lambda: o.nth(8), "rank 8 out of range for alpha=7"),
                (lambda: o.span(0, 8), "rank 7 out of range for alpha=7")]
    for ask, message in bad:
        with pytest.raises(DomainError) as got:
            ask()
        assert str(got.value) == message


@pytest.mark.parametrize("context", [Tower, AAOrders])
def test_successor_orders_at_one_limit_list_their_heads_first(p, context):
    # lam+m's order lists the heads lam+m-1, ..., lam, then lam's order
    orders = context()

    def check(alpha):
        o = orders.order(alpha)
        lam, m = alpha.split()
        heads = [add(lam, ordinal(m - 1 - k)) for k in range(m)]
        assert o.bound == add(lam, ordinal(m)) == alpha
        assert [o.nth(k) for k in range(m)] == heads
        for k in range(m + 1):
            assert o.prefix(k) == heads[:k]
        assert o.prefix(m + 3) == heads + orders.order(lam).prefix(3)

    names = ["w+5", "w+3", "w*2+4"]
    for name in names:
        check(p(name))
    # successors of one limit agree on their heads: w+3's first is w+5's third
    assert orders.order(p("w+3")).prefix(1)[0] == orders.order(p("w+5")).prefix(3)[2]
    # a longer successor order at the same limit leaves the shorter ones' heads as they were
    check(p("w+9"))
    for name in names:
        check(p(name))


def _filter_extend(self):
    # the block rule the structural path must reproduce: the stage-i prefix
    # minus every point placed by an earlier stage
    i = len(self._ends) - 1
    oi = self.ctx.chain_order(self.eta, i)
    fresh = [x for x in oi.prefix(oi.rank(ordinal(i))) if x not in self._ranks]
    for x in fresh:
        self._ranks[x] = len(self._seq)
        self._seq.append(x)
    self._ends.append(len(self._seq))


_SHAPE_A_GRID = [f"w*{k}" for k in range(2, 13)] + [
    f"w^2+w*{k}" for k in range(1, 6)] + ["w^2*2+w", "w^2*3+w", "w^2*3+w*2"]
# ascending: a limit's blocks are compared before a larger one lists further
_LIMITS = [*_SHAPE_A_GRID[:11], "w^2", *_SHAPE_A_GRID[11:16], "w^2*2", *_SHAPE_A_GRID[16:]]


def _filter_blocks(limits, n):
    # the first n blocks at each limit by the literal rule, in one context.
    # The rule reads the orders along eta's chain, lam's among them, so a
    # run order's blocks are checked against the order at lam: the first
    # of each row of the grid against w's canonical order or a new-lam
    # order (whose ranks test_new_lam_ranks_match_listed_positions checks
    # against listing), each later one against the run order before it
    with pytest.MonkeyPatch.context() as m:
        m.setattr(omega.LimitOrder, "_extend", _filter_extend)
        ref = AAOrders()
        return {eta: ref.limit_blocks(eta, n) for eta in limits}


def _run_orders(ctx):
    return [o for o in ctx._orders.values() if isinstance(o, omega.RunOrder)]


def test_limit_blocks_match_filter_rule(p):
    limits = [p(name) for name in _LIMITS]
    want = _filter_blocks(limits, 40)
    orders = AAOrders()
    for eta in limits:
        assert orders.limit_blocks(eta, 40) == want[eta]
        o = orders.order(eta)
        assert o.prefix(len(o._seq)) == [x for b in want[eta] for x in b]
        assert isinstance(o, omega.RunOrder if _steps_by_one(eta) else omega.NewLamOrder)
    # a run order lists blocks 1..1-c with rank entries and the later ones without
    runs = [orders.order(eta) for eta in limits if _steps_by_one(eta)]
    assert all(len(o._ranks) == o._ends[o._first] < len(o._seq) for o in runs)


def test_chain_orders_are_built_once_in_any_read_order(p, monkeypatch):
    # ranks at w^2 read its adjusted chain out of stage order: a natural n at
    # stage n+1, another point at the stage of its block (w*3+40 in block 41).
    # Every stage's order is kept, so each stage that certifies points is
    # adjusted exactly once, however the reads come
    adjusted = []
    adjust = omega._adjust

    def recording_adjust(inner, outer, points):
        adjusted.append(outer.bound)
        return adjust(inner, outer, points)

    monkeypatch.setattr(omega, "_adjust", recording_adjust)
    orders = AAOrders()
    eta = p("w^2")
    reads = [ordinal(30), p("w*3+40"), ordinal(7), p("w*20+2"), ordinal(45), ordinal(12)]
    got = [orders.rank(eta, x) for x in reads]
    stages = orders._chain_orders[eta]
    assert len(stages) == 47 and all(s[3] is not None for s in stages)
    assert adjusted == [s[1] for s in stages[2:]]  # stage 1, at w*2, certifies nothing
    # asked again, in another order, no stage is adjusted again
    assert [orders.rank(eta, x) for x in reads[::-1]] == got[::-1]
    assert [orders.chain_order(eta, i) for i in range(47)] == [s[3] for s in stages]
    assert len(adjusted) == 45
    listed = [x for b in AAOrders().limit_blocks(eta, 47) for x in b]
    assert got == [listed.index(x) for x in reads]


_NEW_LAM_BLOCKS = {"w^2": 41, "w^2*2": 26, "w^2*3": 13, "w^2*5": 9, "w^3": 6}


def test_new_lam_ranks_match_listed_positions(p):
    # at a limit whose last exponent is not 1, a rank is read off the adjusted
    # chain, and only a point in the first part of its block lists blocks; read
    # in random order, on a fresh context every 32 reads, each rank is the
    # point's index in the listed blocks
    unlisted = 0
    for name, n in _NEW_LAM_BLOCKS.items():
        eta = p(name)
        listed = [x for b in AAOrders().limit_blocks(eta, n) for x in b]
        ks = list(range(len(listed)))
        random.Random(name).shuffle(ks)
        for i, k in enumerate(ks):
            if i % 32 == 0:
                orders = AAOrders()
                o = orders.order(eta)
            x = listed[k]
            blocks = None if x in o._ranks else len(o._ends)
            assert orders.rank(eta, x) == k, (name, str(x))
            unlisted += blocks == len(o._ends)  # answered with no block listed
    assert unlisted > 800  # 837 of the 3,827 reads; the rest were listed earlier


def test_run_ranks_match_filter_positions(p):
    # ranks and nth worked out from the runs are the reference's positions,
    # and working them out lists no block past 1-c
    limits = [p(name) for name in _LIMITS]
    want = {eta: [x for b in bs for x in b] for eta, bs in _filter_blocks(limits, 40).items()}
    orders = AAOrders()
    for eta in limits:
        assert [orders.rank(eta, x) for x in want[eta]] == list(range(len(want[eta])))
        assert [orders.nth(eta, k) for k in range(len(want[eta]))] == want[eta]
    runs = _run_orders(orders)
    assert len(runs) > 10
    for o in runs:  # a rank read lists only while nothing is listed, through block 1-c
        assert len(o._ends) - 1 <= o._first <= 3
        q = list(o._run_ranks)  # bisected by _rank; the ends by _stage_at
        assert q == [o._inner.rank(ordinal(n)) for n in range(len(q))]
        assert list(o._run_ends) == [n + o._c + r for n, r in enumerate(q)]
        assert all(a < b for a, b in zip(q, q[1:]))
    # past the reference's blocks: rank and nth invert each other
    for eta in limits:
        o = orders.order(eta)
        far = [enum_below(eta, i) for i in range(0, 400, 5)]
        if isinstance(o, omega.RunOrder):
            far += [*o._inner.prefix(400), *map(o._lam.plus, range(0, 200, 7))]
        assert [o.nth(o.rank(x)) for x in far] == far
        top = o.rank(far[-1])
        assert [o.rank(o.nth(k)) for k in range(top, top + 300)] == list(range(top, top + 300))
    assert all(len(o._ends) - 1 <= o._first for o in _run_orders(orders))


_SHAPE_A = [f"w*{k}" for k in range(2, 9)] + [
    f"w^2{top}+w*{k}" for top in ("", "*2") for k in range(1, 6)]
_SHAPE_A_BLOCKS = {}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SHAPE_A),
       st.lists(st.tuples(st.sampled_from(["blocks", "rank", "nth", "span", "above"]),
                          st.integers(0, 10**6)), min_size=1, max_size=6))
def test_shape_a_orders_match_filter_rule(name, asks):
    # asked in any order on a fresh context, the run phase gives the blocks,
    # ranks and points of the literal rule, up to w^2*2+w*5
    eta = parse_ordinal(name)
    lam = fund_seq(eta, 0)  # eta = lam + w
    if eta not in _SHAPE_A_BLOCKS:
        _SHAPE_A_BLOCKS.update(_filter_blocks([eta], 24))
    want = _SHAPE_A_BLOCKS[eta]
    flat = [x for b in want for x in b]
    orders = AAOrders()
    for kind, k in asks:
        k %= len(flat)
        if kind == "blocks":
            assert orders.limit_blocks(eta, k % 25) == want[:k % 25]
        elif kind == "rank":
            assert orders.rank(eta, flat[k]) == k
        elif kind == "nth":
            assert orders.nth(eta, k) == flat[k]
        elif kind == "span":
            assert orders.order(eta).span(k // 3, k) == flat[k // 3:k]
        else:  # past the listed points, the run tails
            assert orders.order(eta).above(lam, k) == [x for x in flat[:k] if x >= lam]


def test_shape_a_chains_certify_nothing(p):
    # why a run order reads every block by formula: its adjusted chain
    # adjusts nothing.  Block 0 is empty and omega's order is the canonical
    # one, so no point is an exception against omega, and a successor step
    # lam+j to lam+j+1 reorders nothing below lam+j
    orders = AAOrders()
    for name in _SHAPE_A_GRID:
        eta = p(name)
        assert orders.exception_points(W, eta) == ()
        stages = 3 - orders.order(eta)._c  # through stage 2-c, the first successor step
        assert [orders._stage(eta, i)[2] for i in range(stages)] == [()] * stages


def test_shape_a_reads_build_no_adjusted_chain(p):
    # a run order reads by formula, so a rank at w*5 leaves its chain unbuilt;
    # a certificate with upper w*5 still scans that chain
    orders = AAOrders()
    assert orders.rank(p("w*5"), p("w*3+2")) == 14
    assert p("w*5") not in orders._chain_orders
    cert = orders.exception_set(p("w*3"), p("w*5"))
    assert cert.points == tuple(map(p, ["0", "w", "w+1", "w*2"]))
    assert p("w*5") in orders._chain_orders


_TRACE_AA_SUITE = """
import tracemalloc
from ordtower.omega import AAOrders
from ordtower.verify import SUITES, VerifyConfig
tracemalloc.start()
ctx = AAOrders()
for check in SUITES["aa"]:
    check(VerifyConfig(seed=1), ctx)
print(tracemalloc.get_traced_memory()[0])
"""


def test_aa_suite_keeps_under_4_2_mib():
    # what the aa suite leaves built, measured in a fresh process: 1.6 MiB
    # with w^2's ranks read off its kept adjusted chain (3.0 MiB before);
    # 3.5 MiB with run ends and inner ranks as int arrays, superseded chain
    # orders released and enumeration answers kept under limits only; 3.6 MiB
    # (3.7 on Python 3.10) with one dict per eta; 4.6 MiB with a
    # list, every chain order kept and a tuple key per answer; 11.9 MiB
    # when every run point was listed
    r = subprocess.run([sys.executable, "-c", _TRACE_AA_SUITE],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 4.2 * 2**20


def test_aa_suite_rank_work_and_growth_are_pinned(monkeypatch):
    # the aa suite at seed 1 on a fresh context, counted since its wall time
    # is noisy: with the _read memos it makes 24,508 RunOrder._rank and 211
    # chain_order calls (43,753 and 693 without), and grows the same orders
    calls = {"rank": 0, "chain": 0, "adjust": 0}

    def counted(fn, key):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(omega.RunOrder, "_rank", counted(omega.RunOrder._rank, "rank"))
    monkeypatch.setattr(AAOrders, "chain_order", counted(AAOrders.chain_order, "chain"))
    monkeypatch.setattr(omega, "_adjust", counted(omega._adjust, "adjust"))
    ctx = AAOrders()
    for check in verify.SUITES["aa"]:
        assert check(verify.VerifyConfig(seed=1), ctx).passed
    assert calls["rank"] <= 26_000 and calls["chain"] <= 250
    assert sum(_limit_lengths(ctx).values()) == 5711
    assert sum(len(o._run_ends) for o in _run_orders(ctx)) == 7072
    assert sum(map(len, ctx._chain_orders.values())) == 370
    assert calls["adjust"] == 78
    assert (len(ctx._orders), len(ctx._exc)) == (192, 473)


def test_limit_orders_build_only_what_a_certificate_needs(p):
    # the work done is pinned: a change that over-builds shows up here
    orders = AAOrders()
    cert = orders.exception_set(p("w*2"), p("w^2"))
    assert orders.verify_exception(cert, 100, 3)
    limits = [o for o in orders._orders.values() if isinstance(o, omega.LimitOrder)]
    assert len(limits) == 33
    # w^2's ranks are read off its adjusted chain, and a run order lists
    # blocks for a rank read only while none is listed: 66 blocks and 563
    # points (97 and 1,121 when a run order listed through block 1-c on its
    # first read)
    assert sum(len(o._ends) - 1 for o in limits) == 66
    assert sum(len(o._seq) for o in limits) == 563
    # only blocks 1..1-c of a run order are listed with rank entries; its
    # stage ends are memo ints
    assert sum(len(o._ranks) for o in limits) == 563
    assert sum(len(o._run_ends) for o in _run_orders(orders)) == 1024
    # a run order builds no chain order: 34 memoized orders (66 when its
    # first stages were read off the chain)
    assert len(orders._orders) == 34


@pytest.mark.parametrize("eta, chain, base", [
    ("w*6", ["w*6", "w*5", "w*4", "w*3", "w*2"], None),
    ("w^2+w*3", ["w^2+w*3", "w^2+w*2", "w^2+w"], "w^2"),
])
def test_run_phase_reads_grow_exactly_the_stage_they_read(p, eta, chain, base):
    # a natural n sits at e(n)+1, just after stage n+1's tail point, and the
    # tail point lam+(t+c) at e(t); so each read needs stage n or t of every
    # run order down the chain and, in a new-lam base, the rank of that
    # natural, n or t, read off the base's adjusted chain at stage n+1 or t+1.
    # Growing one stage more per level would show here.
    orders = AAOrders()
    o = orders.order(p(eta))
    runs, reach = [orders.order(p(name)) for name in chain], 0
    for n, read in [(40, "natural"), (55, "tail"), (30, "natural"), (70, "tail")]:
        x = ordinal(n) if read == "natural" else o._inner.bound.plus(n + o._c)
        assert o.rank(x) == o._run_ends[n] + (read == "natural")
        reach = max(reach, n)
        assert [len(r._run_ends) for r in runs] == [reach + 1] * len(runs)
        if base is not None:  # listed only as far as the first stage over it needs
            assert len(orders.order(p(base))._ends) - 1 == 4
            stages = orders._chain_orders[p(base)]
            assert [s[3] is not None for s in stages] == [True] * (reach + 2)


_MEMO_LIMITS = ([f"w*{k}" for k in range(2, 13)] + [f"w^2+w*{k}" for k in range(1, 13)]
                + [f"w^2*2+w*{k}" for k in range(1, 13)] + ["w^2", "w^2*2", "w^3"])


def _growth(ctx):
    # listed points per limit order, stage ends per run order, and each
    # chain's stages with which of them hold a built order
    return (_limit_lengths(ctx), {o.eta: len(o._run_ends) for o in _run_orders(ctx)},
            {eta: [s[3] is not None for s in stages] for eta, stages in ctx._chain_orders.items()})


def test_rank_memo_changes_no_answer_and_no_growth(p):
    # run orders at w*k, w^2+w*k, w^2*2+w*k and the new-lam orders at w^2,
    # w^2*2, w^3, read in a seeded random order with repeats: a rank read a
    # second time off _read equals the same read on a fresh context, and the
    # orders grow exactly as on a twin that reads each point once
    rng = random.Random(40)
    reads = [(eta, enum_below(eta, rng.randrange(60)))
             for eta in map(p, _MEMO_LIMITS) for _ in range(6)]
    asks = [rng.choice(reads) for _ in range(3 * len(reads))]
    orders, twin = AAOrders(), AAOrders()
    got = [orders.rank(eta, x) for eta, x in asks]
    once = list(dict.fromkeys(asks))
    assert len(once) < len(asks)
    fresh = {(eta, x): AAOrders().rank(eta, x) for eta, x in once}
    assert got == [fresh[ask] for ask in asks]
    for eta, x in once:
        twin.rank(eta, x)
    assert _growth(orders) == _growth(twin)
    # both kinds of limit order kept some reads
    kept = {type(o) for o in orders._orders.values() if getattr(o, "_read", None)}
    assert kept == {omega.RunOrder, omega.NewLamOrder}


def test_a_repeated_rank_below_w2_asks_no_order_below_the_top(p, monkeypatch):
    # a first rank at w^2+w*12 of a point below w^2 asks each run order down
    # to w^2+w, then w^2's chain, whose stages ask the run orders below w^2;
    # a repeat is one hit in the top order's _read
    calls = []
    rank = omega.RunOrder._rank

    def counted(self, x):
        calls.append(self.eta)
        return rank(self, x)

    monkeypatch.setattr(omega.RunOrder, "_rank", counted)
    orders, top, x = AAOrders(), p("w^2+w*12"), p("w*3+2")
    first = orders.rank(top, x)
    assert {p(f"w^2+w*{k}") for k in range(1, 13)} <= set(calls)
    calls.clear()
    assert orders.rank(top, x) == first
    assert calls == [top]


def test_contexts_keep_the_fields_the_bench_tracer_reads():
    # bench/tracer.py tells a Tower from an AAOrders by Tower's _order dict,
    # then reads these memo dicts; an AAOrders attribute named _order would
    # send it down the Tower branch
    orders, tower = AAOrders(), Tower()
    assert not hasattr(orders, "_order")
    assert isinstance(tower._order, dict) and isinstance(tower._chain, dict)
    for name in ["_orders", "_chain_orders", "_exc"]:
        assert isinstance(getattr(orders, name), dict)
    # it wraps each traced method through its own class's __dict__, so one
    # inherited from a base class would stop every traced run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = [owner for fns in tracer.TRACED.values() for _, owner, _ in fns]
    assert "tower:Tower" in owners and "omega:AAOrders" in owners
    for fns in tracer.TRACED.values():
        for _, owner, attr in fns:
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(f"ordtower.{mod_name}")
            if cls_name:
                assert attr in vars(getattr(mod, cls_name)), owner + "." + attr
            else:
                assert callable(getattr(mod, attr, None)), owner + "." + attr
    for cls in (Tower, AAOrders):  # install() also wraps both constructors
        assert "__init__" in vars(cls)


def test_ceiling_stops_both_block_constructions(p, monkeypatch):
    # both constructions read the one constant in tower
    monkeypatch.setattr("ordtower.tower.CEILING", 3)
    t = Tower()
    assert len(t.blocks(W, 3)) == 4
    with pytest.raises(IterationCeilingError,
                       match="block construction at w exceeded 3 stages"):
        t.blocks(W, 4)
    orders = AAOrders()
    assert len(orders.limit_blocks(p("w*2"), 3)) == 3
    with pytest.raises(IterationCeilingError,
                       match=r"block construction at w\*2 exceeded 3 stages"):
        orders.limit_blocks(p("w*2"), 4)


def _reference_verify(ctx, cert, samples, seed, lower_order=None, upper_order=None, pool=60):
    # the sampler as first written: four rank calls per sample, repeats included
    lo = lower_order if lower_order is not None else ctx.order(cert.lower)
    hi = upper_order if upper_order is not None else ctx.order(cert.upper)
    excl = set(cert.points)
    rng = Lcg(seed)
    candidates, seen = [], set()
    for idx in range(2 * pool + len(excl)):
        x = enum_below(cert.lower, idx)
        if x in excl or x in seen:
            continue
        seen.add(x)
        candidates.append(x)
        if len(candidates) >= pool:
            break
    for _ in range(samples):
        x = candidates[rng.below(len(candidates))]
        y = candidates[rng.below(len(candidates))]
        if x == y:
            continue
        if (lo.rank(x) < lo.rank(y)) != (hi.rank(x) < hi.rank(y)):
            return VerifyResult(False, (x, y))
    return VerifyResult(True, None)


class _Recording(omega.OmegaOrder):
    def __init__(self, order, tag, log):
        self.order, self.tag, self.log = order, tag, log

    def rank(self, x):
        self.log.append((self.tag, x))
        return self.order.rank(x)


def _limit_lengths(ctx):
    return {eta: len(o._seq) for eta, o in ctx._orders.items()
            if isinstance(o, omega.LimitOrder)}


def _swapped(order, a, b):
    # order with the points a and b trading places, all else kept
    head = order.prefix(1 + max(order.rank(a), order.rank(b)))
    i, j = head.index(a), head.index(b)
    head[i], head[j] = b, a
    return PatchedOrder(order, head)


def test_memoized_sampler_matches_four_ranks_per_sample(p):
    # same verdicts and witnesses, and every limit order grown exactly as far
    new, ref = AAOrders(), AAOrders()
    rng = Lcg(21)
    top = p("w^2*2")
    triples = []
    while len(triples) < 12:
        a, b = enum_below(top, rng.below(160)), enum_below(top, rng.below(160))
        lo, hi = max(min(a, b), W), max(a, b)
        if lo < hi:
            triples.append((lo, hi, 100 + len(triples)))
    for k, (lo, hi, seed) in enumerate(triples):
        samples = (5, 20, 200)[k % 3]  # few samples leave candidates unranked
        cert = new.exception_set(lo, hi)
        assert cert == ref.exception_set(lo, hi)
        asked, asked_ref = [], []
        got = new.verify_exception(cert, samples, seed,
                                   lower_order=_Recording(new.order(lo), "lo", asked),
                                   upper_order=_Recording(new.order(hi), "hi", asked))
        want = _reference_verify(ref, cert, samples, seed,
                                 lower_order=_Recording(ref.order(lo), "lo", asked_ref),
                                 upper_order=_Recording(ref.order(hi), "hi", asked_ref))
        assert got == want and got.ok
        # each candidate once per order, first asks in the reference's order
        assert asked == list(dict.fromkeys(asked_ref))
        assert _limit_lengths(new) == _limit_lengths(ref)
    # negative controls: the upper order with two candidates swapped
    fails = 0
    for lo, hi, seed in triples[:6]:
        cert = new.exception_set(lo, hi)
        cands = [enum_below(lo, i) for i in range(120 + len(cert.points))]
        cands = [x for x in dict.fromkeys(cands) if x not in cert.points]
        x, y = cands[0], cands[len(cands) // 2]
        bad_new, bad_ref = _swapped(new.order(hi), x, y), _swapped(ref.order(hi), x, y)
        for s in range(seed, seed + 5):
            got = new.verify_exception(cert, 200, s, lower_order=new.order(lo),
                                       upper_order=bad_new)
            want = _reference_verify(ref, cert, 200, s, lower_order=ref.order(lo),
                                     upper_order=bad_ref)
            assert got == want
            fails += not got.ok
        assert _limit_lengths(new) == _limit_lengths(ref)
    assert fails > 0


class _Tied(omega.OmegaOrder):
    # order with b given a's rank: a deliberately broken override
    def __init__(self, order, a, b):
        self.order, self.a, self.b = order, a, b

    def rank(self, x):
        return self.order.rank(self.a if x == self.b else x)


def test_sampler_ends_once_every_pair_is_known(p):
    # at 10**11 samples an OK returns once each candidate has both ranks, and
    # a failure is the reference's witness, found with the reference's asks
    new, ref = AAOrders(), AAOrders()
    pairs = [("w", "w^2"), ("w*2", "w^2"), ("w*3", "w^2*2"), ("w^2", "w^2+w*4")]
    for k, (lo, hi) in enumerate(pairs):
        lo, hi = p(lo), p(hi)
        cert = new.exception_set(lo, hi)
        asked = []
        got = new.verify_exception(cert, 10**11, seed=k,
                                   lower_order=_Recording(new.order(lo), "lo", asked),
                                   upper_order=_Recording(new.order(hi), "hi", asked))
        assert got == VerifyResult(True, None)
        assert len(asked) == 120 and len(set(asked)) == 120
        # two candidates trade places in the upper order; two adjacent ones
        # share a rank in the lower, so only one ordered pair disagrees
        cands = [enum_below(lo, i) for i in range(120 + len(cert.points))]
        cands = [x for x in dict.fromkeys(cands) if x not in cert.points][:60]
        x, y = cands[1], cands[len(cands) // 2]
        a, b = sorted(cands, key=new.order(lo).rank)[10:12]
        for s, (lo_new, hi_new, lo_ref, hi_ref) in enumerate([
                (new.order(lo), _swapped(new.order(hi), x, y),
                 ref.order(lo), _swapped(ref.order(hi), x, y)),
                (_Tied(new.order(lo), a, b), new.order(hi),
                 _Tied(ref.order(lo), a, b), ref.order(hi))]):
            asked, asked_ref = [], []
            got = new.verify_exception(cert, 10**11, seed=10 * k + s,
                                       lower_order=_Recording(lo_new, "lo", asked),
                                       upper_order=_Recording(hi_new, "hi", asked))
            want = _reference_verify(ref, cert, 10**11, seed=10 * k + s,
                                     lower_order=_Recording(lo_ref, "lo", asked_ref),
                                     upper_order=_Recording(hi_ref, "hi", asked_ref))
            assert got == want and not got.ok
            assert asked == list(dict.fromkeys(asked_ref))
        assert got.witness == (a, b)


@given(st.lists(st.integers(0, 4), min_size=2, max_size=8), st.data())
def test_sorted_pair_check_matches_every_ordered_pair(lo_r, data):
    # hi either follows lo up to ties and a few breaks, or is drawn freely
    spread = data.draw(st.lists(st.integers(0, 1), min_size=len(lo_r), max_size=len(lo_r)))
    hi_r = data.draw(st.one_of(
        st.just([2 * a + b for a, b in zip(lo_r, spread)]),
        st.lists(st.integers(0, 4), min_size=len(lo_r), max_size=len(lo_r))))
    n = len(lo_r)
    want = all((lo_r[a] < lo_r[b]) == (hi_r[a] < hi_r[b]) for a in range(n) for b in range(n))
    assert omega._same_order(lo_r, hi_r) == want


@given(st.lists(st.integers(0, 9), min_size=1, max_size=12),
       st.lists(st.integers(0, 9), max_size=12), st.integers(1, 12))
def test_adjust_matches_inserting_each_point_after_its_anchor(inner_perm, picks, mult):
    # the definition: take the points out of outer, put them back in
    # increasing order, each right after its anchor (the front when none)
    inner = [ordinal(x) for x in dict.fromkeys(inner_perm)]
    # x -> mult*x mod 13 permutes 0..11, so each mult gives another outer order
    outer = sorted(inner + [ordinal(10), ordinal(11)], key=lambda x: x.natural() * mult % 13)
    points = oset(x for x in picks if x in inner)
    inner_o, outer_o = ListOrder(inner), ListOrder(outer)
    got = omega._adjust(inner_o, outer_o, points)
    if not points:
        assert got is outer_o
        return
    later, anchors = set(points), {}
    for x in points:
        later.discard(x)
        before = [z for z in inner[:inner.index(x)] if z not in later]
        anchors[x] = before[-1] if before else None
    n = 1 + max(outer_o.rank(z) for z in [*points, *anchors.values()] if z is not None)
    head = [z for z in outer_o.prefix(n) if z not in anchors]
    for x in points:
        a = anchors[x]
        head.insert(0 if a is None else head.index(a) + 1, x)
    assert got.head == head
