"""Almost-agreeing omega-orders: prefixes, certificates, adjustment."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from ordtower import omega
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
)
from ordtower.omega import PatchedOrder


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
    # rank and nth at w+10^8 read offsets from w; no tail is materialised
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
    assert orders._tails[W] == [W]


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


@pytest.mark.parametrize("context", [Tower, AAOrders])
def test_successor_tails_are_shared_per_limit(p, context):
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
    # w+3 reads its heads from the tail w+5 built
    assert orders.order(p("w+3")).prefix(1)[0] is orders.order(p("w+5")).prefix(3)[2]
    # a longer tail appends; shorter orders keep their heads
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


def test_limit_blocks_match_filter_rule(p, monkeypatch):
    limits = [p(name) for name in ["w*2", "w*3", "w*5", "w*12", "w^2", "w^2+w*2",
                                    "w^2+w*3", "w^2*2"]]
    monkeypatch.setattr(omega.LimitOrder, "_extend", _filter_extend)
    ref = AAOrders()
    want = {eta: ref.limit_blocks(eta, 40) for eta in limits}
    monkeypatch.undo()

    paths = {"structural": 0, "filter": 0}
    chain_block = omega.LimitOrder._chain_block

    def counting_chain_block(self, inner, m, q):
        got = chain_block(self, inner, m, q)
        paths["structural" if got is not None else "filter"] += 1
        return got

    monkeypatch.setattr(omega.LimitOrder, "_chain_block", counting_chain_block)
    orders = AAOrders()
    for eta in limits:
        assert orders.limit_blocks(eta, 40) == want[eta]
        o = orders.order(eta)
        assert o.prefix(len(o._seq)) == [x for b in want[eta] for x in b]
    assert paths["structural"] > 0 and paths["filter"] > 0


def test_run_ranks_match_filter_positions(p, monkeypatch):
    # ranks read off the runs are the reference's positions, and asking for
    # an unplaced point grows no order
    limits = [p(name) for name in ["w*2", "w*3", "w*5", "w*12", "w^2", "w^2+w*2",
                                    "w^2+w*3", "w^2*2"]]
    monkeypatch.setattr(omega.LimitOrder, "_extend", _filter_extend)
    ref = AAOrders()
    want = {eta: [x for b in ref.limit_blocks(eta, 40) for x in b] for eta in limits}
    monkeypatch.undo()

    inners = {}
    chain_block = omega.LimitOrder._chain_block

    def recording_chain_block(self, inner, m, q):
        got = chain_block(self, inner, m, q)
        if got is not None:
            inners.setdefault(self.eta, set()).add(id(inner))
        return got

    monkeypatch.setattr(omega.LimitOrder, "_chain_block", recording_chain_block)
    orders = AAOrders()
    for eta in limits:
        orders.limit_blocks(eta, 40)
    grown = {eta: o for eta, o in orders._orders.items() if isinstance(o, omega.LimitOrder)}
    # the runs rely on this: one inner order per limit, q and m rising
    assert sum(len(o._qs) for o in grown.values()) > 100
    for eta, o in grown.items():
        assert len(o._q0s) == len(o._qs) == len(o._ms)
        assert inners.get(eta, set()) == ({id(o._inner)} if o._qs else set())
        # a run is q0..q of lam's points and its tail point m - 1 (m0 = m - 1):
        # runs never overlap in lam's points, m rises strictly, starts rise
        assert all(q0 <= q for q0, q in zip(o._q0s, o._qs))
        assert all(q <= q0 for q, q0 in zip(o._qs, o._q0s[1:]))
        assert all(m < m1 for m, m1 in zip(o._ms, o._ms[1:]))
        starts = [m - 1 + q0 for q0, m in zip(o._q0s, o._ms)]
        assert all(a <= b for a, b in zip(starts, starts[1:]))
    for eta in limits:
        o = orders.order(eta)
        assert [o.rank(x) for x in want[eta]] == list(range(len(want[eta])))
    near = {eta: [enum_below(eta, i) for i in range(0, 30000, 97)] for eta in limits}
    for eta in limits:
        o = orders.order(eta)
        if o._qs:  # past the last run: lam's points and tail offsets
            lam, q, m = o._inner.bound, o._qs[-1], o._ms[-1]
            near[eta] += [*o._inner.prefix(q + 50), *map(lam.plus, range(m + 50))]
    lengths = _limit_lengths(orders)
    for eta in limits:
        o = orders.order(eta)
        placed = set(o._seq)
        unplaced = [x for x in near[eta] if x not in placed]
        assert len(unplaced) > 50
        assert all(o._peek(x) is None for x in unplaced)
    for o in grown.values():
        assert [o._peek(x) for x in o._seq] == list(range(len(o._seq)))
    assert _limit_lengths(orders) == lengths


def test_planted_certificate_sends_a_shape_a_chain_through_adjust(p, monkeypatch):
    # a certificate planted at stage 1 of a shape-A chain carries to every
    # later stage, so no stage is a run: each is adjusted, then filtered
    first = {p("w*2"): p("w+1"), p("w^2+w*2"): p("w^2+w")}  # eta -> alpha_1
    planted = (ordinal(2), ordinal(5))
    plain = {eta: AAOrders().limit_blocks(eta, 40) for eta in first}
    exception_points = AAOrders.exception_points

    def planting(self, beta, alpha):
        if beta is W and alpha in first.values():
            return planted
        return exception_points(self, beta, alpha)

    monkeypatch.setattr(AAOrders, "exception_points", planting)
    with monkeypatch.context() as m:
        m.setattr(omega.LimitOrder, "_extend", _filter_extend)
        ref = AAOrders()
        want = {eta: ref.limit_blocks(eta, 40) for eta in first}

    adjusted = []
    adjust = omega._adjust

    def recording_adjust(inner, outer, points):
        adjusted.append((outer.bound, points))
        return adjust(inner, outer, points)

    monkeypatch.setattr(omega, "_adjust", recording_adjust)
    orders = AAOrders()
    for eta, alpha in first.items():
        assert orders.limit_blocks(eta, 40) == want[eta]
        assert orders.order(eta)._qs == []
        alphas = [alpha.plus(i) for i in range(39)]
        assert [s[1] for s in orders._chain_orders[eta][1:40]] == alphas
        assert {(a, planted) for a in alphas} <= set(adjusted)
    # at w^2+w*2 the plant moves points, so runs would list other blocks
    assert want[p("w^2+w*2")] != plain[p("w^2+w*2")]


_TRACE_AA_SUITE = """
import tracemalloc
from ordtower.omega import AAOrders
from ordtower.verify import VerifyConfig, suite_aa
tracemalloc.start()
ctx = AAOrders()
suite_aa(VerifyConfig(seed=1), ctx)
print(tracemalloc.get_traced_memory()[0])
"""


def test_aa_suite_keeps_under_13_mib():
    # what the aa suite leaves built, measured in a fresh process: 11.9 MiB
    # with shared term pairs and int run columns, 13.1 and 14.0 MiB with
    # only one of the two, 15.2-15.3 MiB with neither (Python 3.10 and 3.11)
    r = subprocess.run([sys.executable, "-c", _TRACE_AA_SUITE],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 13 * 2**20


def test_limit_orders_build_only_what_a_certificate_needs(p):
    # the work done is pinned: a change that over-builds shows up here
    orders = AAOrders()
    cert = orders.exception_set(p("w*2"), p("w^2"))
    assert orders.verify_exception(cert, 100, 3)
    limits = [o for o in orders._orders.values() if isinstance(o, omega.LimitOrder)]
    assert len(limits) == 33
    assert sum(len(o._ends) - 1 for o in limits) == 1617
    assert sum(len(o._seq) for o in limits) == 25489
    # run points get a rank entry only once asked: 3,664 entries today
    assert sum(len(o._ranks) for o in limits) < 4000
    # structural stages build no order: 66 memoized orders today
    assert len(orders._orders) < 100


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
