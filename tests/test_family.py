"""Closed sets, cofinal extension, the ladder and family windows."""

import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ordtower import (
    DomainError,
    Entailment,
    FamilyWindow,
    IterationCeilingError,
    Lcg,
    SetSystemWindow,
    W,
    cofinal_extend,
    entails,
    enum_below,
    enumerate_family,
    is_closed,
    ladder,
    ordinal,
    oset,
    parse_ordinal,
)
from ordtower import verify
from ordtower.ordinals import ORD_KEY
from ordtower.tower import BlockOrder, Tower

p = parse_ordinal


def closed_by_triples(a, tower):
    """Independent route: literal check of the defining production."""
    pts = list(oset(a))
    inside = set(pts)
    for alpha in pts:
        for beta in pts:
            if not beta < alpha:
                continue
            # every gamma ranked before beta must be present
            for gamma in (tower.nth(alpha, i)
                          for i in range(tower.rank(alpha, beta))):
                if gamma not in inside:
                    return False
    return True


def is_interval(xs):
    return not xs or xs == list(range(xs[0], xs[-1] + 1))


def test_closed_below_omega_is_interval(tower):
    # naturals rank in reverse, so a gap strictly inside breaks closure
    for k in range(6):
        assert is_closed([ordinal(i) for i in range(k)], tower)
    assert is_closed([2, 3, 4], tower)
    assert not is_closed([0, 2], tower)
    assert not is_closed([0, 1, 3, 4], tower)


def test_closed_brute_intervals(tower):
    # exact characterization over all subsets of {0..7}
    for mask in range(1 << 8):
        xs = [i for i in range(8) if mask >> i & 1]
        assert is_closed(xs, tower) == is_interval(xs)


def test_closed_empty_and_singletons(tower):
    assert is_closed([], tower)
    assert is_closed([0], tower)
    assert is_closed([1], tower)
    assert is_closed([W], tower)  # no pair below it, vacuously closed


def test_closed_agrees_with_triples_oracle(tower):
    rng = Lcg(3)
    from ordtower import enum_below
    for _ in range(150):
        a = {enum_below(p("w^2"), rng.below(16)) for _ in range(1 + rng.below(6))}
        a = tuple(sorted(a))
        assert is_closed(a, tower) == closed_by_triples(a, tower)
        assert verify._closed_by_segments(a, tower) == closed_by_triples(a, tower)


def seeded_closed_and_open_sets(seed, n, tower):
    # drawn as in the triples test, plus each set's closure and that closure
    # with one of its added points dropped; small, for the cubic oracle
    rng = Lcg(seed)
    from ordtower import enum_below
    sets = []
    for _ in range(n):
        a = tuple(sorted({enum_below(p("w^2"), rng.below(16))
                          for _ in range(1 + rng.below(6))}))
        ext = cofinal_extend(a, tower)
        added = [x for x in ext if x not in a]
        gone = added[rng.below(len(added))]
        sets += [a, ext, tuple(x for x in ext if x != gone)]
    return sets


def test_closed_agrees_with_triples_on_closures(tower):
    sets = seeded_closed_and_open_sets(7, 40, tower)
    verdicts = [is_closed(a, tower) for a in sets]
    assert verdicts == [closed_by_triples(a, tower) for a in sets]
    assert True in verdicts and False in verdicts


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 31), max_size=5), st.integers(0, 63))
@example([9, 25, 5, 29], 0)  # w, w+1, w^2, w^2+3: tails above two limits
@example([30], 13)  # w^2+w*2+14 alone: its closure minus a point of its own tail
def test_segment_route_agrees_with_is_closed_and_triples(js, k):
    # raw sets below w^2+w*3, their closures, and each closure with one added
    # point dropped; indices below 32 keep closures within 56 points, small
    # enough for the cubic oracle
    tower = Tower()
    a = oset(enum_below(p("w^2+w*3"), j) for j in js)
    ext = cofinal_extend(a, tower)
    added = [x for x in ext if x not in a]
    holed = tuple(x for x in ext if x != added[k % len(added)])
    for s in (a, ext, holed):
        want = closed_by_triples(s, tower)
        assert is_closed(s, tower) == want and verify._closed_by_segments(s, tower) == want


def test_closed_asks_the_ranks_and_grows_the_orders_of_the_triples(tower, monkeypatch):
    sets = seeded_closed_and_open_sets(8, 25, tower)
    calls = []
    rank = Tower.rank

    def recorded(self, alpha, x):
        calls.append((alpha, x))
        return rank(self, alpha, x)

    monkeypatch.setattr(Tower, "rank", recorded)
    routes = []
    for route in (is_closed, closed_by_triples):
        calls.clear()
        fresh = Tower()
        verdicts = [route(a, fresh) for a in sets]
        lengths = {eta: len(o._seq) for eta, o in fresh._orders.items()
                   if isinstance(o, BlockOrder)}
        routes.append((verdicts, list(calls), lengths))
    assert routes[0] == routes[1]
    assert routes[0][1] and routes[0][2]


@pytest.mark.parametrize("check", [verify._check_close_sound, verify._check_section])
def test_sampling_checks_stop_when_no_draw_is_usable(tower, check):
    # below bound 1 every draw is 0, which neither check can use
    cfg = verify.VerifyConfig(bound=ordinal(1))
    with pytest.raises(DomainError, match="sample space too small"):
        check(cfg, tower)


_CHECK_WITH_ZERO_DRAWS = """
import sys
from ordtower import AAOrders, DomainError, Lcg, Tower, verify
Lcg.below = lambda self, n: 0
check, ctx = getattr(verify, sys.argv[1]), {"Tower": Tower, "AAOrders": AAOrders}[sys.argv[2]]
try:
    print(check(verify.VerifyConfig(), ctx()).line())
except DomainError as exc:
    print("DomainError:", exc)
"""


@pytest.mark.parametrize("check, ctx", [("_check_trichotomy", "Tower"),
                                        ("_check_almost_agree", "AAOrders")])
def test_sampling_checks_stop_when_every_draw_repeats(check, ctx):
    # with every draw 0, trichotomy only ever draws alpha = 0 and almost-agree
    # only a == b; both skip those, so an unbudgeted loop would never end
    r = subprocess.run([sys.executable, "-c", _CHECK_WITH_ZERO_DRAWS, check, ctx],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("DomainError: sample space too small: ")


def test_cofinal_extend_sound(tower):
    rng = Lcg(5)
    from ordtower import enum_below
    for _ in range(100):
        a = {enum_below(p("w^2"), rng.below(16)) for _ in range(1 + rng.below(5))}
        ext = cofinal_extend(tuple(sorted(a)), tower)
        assert a <= set(ext)
        assert is_closed(ext, tower)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 199), st.lists(st.integers(0, 15), max_size=5))
@example(2, [15])
def test_closures_and_windows_are_built_sorted(i, js):
    # close sorts lam's stage prefix once and appends the tail above it;
    # windows format each point once and trace members through one bit map.
    # Of all draws only close(w^2, [5]), at i=2 with 15 in js, needs more
    # stages at w*14 than the reach ceiling allows; it has no closure to check
    tower = Tower()
    alpha = enum_below(p("w^2*2"), i)
    a = oset(enum_below(alpha, j) for j in js) if alpha else ()
    try:
        closed = tower.close(alpha, a)
    except IterationCeilingError as exc:
        assert str(exc) == "block construction at w*14 exceeded 20000 stages"
        closed = ()
    keys = list(map(ORD_KEY, closed))
    assert keys == sorted(set(keys)) and closed == oset(closed)
    ext = cofinal_extend(a, tower)
    assert set(a) <= set(ext) and ext[-1] == (a[-1].succ() if a else ordinal(1))
    members = (closed, ext, *(cofinal_extend(a[:k], tower) for k in range(1, len(a))))
    window = FamilyWindow(alpha, 0, members)
    assert window.to_dict()["members"] == [[str(x) for x in m] for m in members]
    for ground in (None, a):
        sys_ = SetSystemWindow.from_window(window, ground)
        assert sys_.ground == oset(set().union(*members) if ground is None else ground)
        assert sys_.masks == tuple(sum(1 << k for k, x in enumerate(sys_.ground) if x in m)
                                   for m in members)


def test_cofinal_extend_empty(tower):
    ext = cofinal_extend([], tower)
    assert is_closed(ext, tower)


def test_ladder_law(tower):
    pts, sets = ladder(12, p("w^2"), tower)
    assert len(pts) == len(sets) == 12
    for i in range(12):
        for j in range(12):
            assert (pts[i] in set(sets[j])) == (i <= j)
    for s in sets:
        assert is_closed(s, tower)


def test_ladder_degenerate(tower):
    assert ladder(0, W, tower) == ([], [])
    with pytest.raises(DomainError):
        ladder(3, 0, tower)


def test_window_roundtrip(tower):
    win = enumerate_family(p("w^2"), 10, 99, tower)
    assert win.count == 10
    assert len(set(win.members)) == 10
    again = FamilyWindow.from_json(json.dumps(win.to_dict(), sort_keys=True))
    assert again == win


def test_window_members_closed_and_bounded(tower):
    win = enumerate_family(p("w^2"), 20, 4, tower)
    for m in win.members:
        assert all(x < p("w^2") for x in m)
        assert is_closed(m, tower)


def test_window_deterministic(tower):
    a = enumerate_family(p("w*3"), 8, 12, tower)
    b = enumerate_family(p("w*3"), 8, 12, tower)
    assert a == b


def test_window_that_cannot_fill_ends_in_bounded_time():
    # below 2 every closure is {0,1} or {0,1,2}: the search gives up once
    # draws stop adding members, not after a number of draws that grows
    # with the count asked for
    start = time.perf_counter()
    with pytest.raises(IterationCeilingError,
                       match=r"^could not reach 100000000 distinct members below 2$"):
        enumerate_family(2, 10**8, 1, Tower())
    assert time.perf_counter() - start < 2


def test_window_malformed_json():
    with pytest.raises(DomainError):
        FamilyWindow.from_json("{nope")
    with pytest.raises(DomainError):
        FamilyWindow.from_json('{"bound": "w"}')
    good = {"bound": "w", "seed": 1, "members": [["1", "2"], ["w"]]}
    assert FamilyWindow.from_dict(good).members == (oset([1, 2]), (W,))
    for field, value in [("seed", 1.5), ("seed", True), ("seed", "1"),
                         ("members", ["12", "w"]), ("members", [["1"], "2"]),
                         ("members", "12"), ("members", [[1]])]:
        with pytest.raises(DomainError, match="malformed family window"):
            FamilyWindow.from_dict({**good, field: value})


def test_entails_refuted(tower):
    win = enumerate_family(W, 6, 1, tower)
    # {0,1} is a member, contains 0, misses w
    verdict, witness = entails([0], [W], win)
    assert verdict is Entailment.REFUTED
    assert witness is not None and W not in set(witness)
    assert ordinal(0) in set(witness)


def test_entails_no_witness(tower):
    win = enumerate_family(W, 6, 1, tower)
    verdict, witness = entails([1], [0], win)
    assert verdict is Entailment.NO_WITNESS_IN_WINDOW
    assert witness is None


def test_cofinality_in_window(tower):
    # each small set is inside some member of a generous window
    win = enumerate_family(W, 25, 2, tower)
    for target in [{0, 1}, {2, 4}, {0, 5, 7}]:
        t = {ordinal(x) for x in target}
        assert any(t <= set(m) for m in win.members)


def test_window_at_omega_initial_segments(tower):
    win = enumerate_family(W, 50, 1, tower)
    for m in win.members:
        xs = [x.natural() for x in m]
        assert xs == list(range(len(xs)))


def test_ladder_first_rungs(tower):
    pts, sets = ladder(2, W, tower)
    assert pts == [ordinal(0), ordinal(2)]
    assert sets[0] == (ordinal(0), ordinal(1))
    assert sets[1] == tuple(ordinal(i) for i in range(4))


def test_cofinal_extend_examples(tower):
    assert cofinal_extend([2], tower) == tuple(ordinal(i) for i in range(4))
    assert cofinal_extend([], tower) == (ordinal(0), ordinal(1))
    assert cofinal_extend([0, 2], tower) == tuple(ordinal(i) for i in range(4))
