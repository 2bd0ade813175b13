"""Set-system analytics checked against direct subset enumeration."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtower import (
    DomainError,
    FamilyWindow,
    GuardExceededError,
    Lcg,
    RmkValue,
    SetSystemWindow,
    W,
    cond4_check,
    enumerate_family,
    hunt_shattered,
    is_shattered,
    ordinal,
    oset,
    rmk_eval,
    sauer_check,
    shatter_certificate,
    trace,
    vc_dim,
)


def mask_to_set(mask, ground):
    return frozenset(p for i, p in enumerate(ground) if mask >> i & 1)


def brute_trace(ground, masks, a):
    aset = frozenset(a)
    return {mask_to_set(m, ground) & aset for m in masks}

def brute_shattered(ground, masks, a):
    got = brute_trace(ground, masks, a)
    return all(frozenset(c) in got
               for r in range(len(a) + 1)
               for c in combinations(a, r))

def brute_vc(ground, masks):
    best = 0
    for r in range(len(ground), -1, -1):
        if any(brute_shattered(ground, masks, c) for c in combinations(ground, r)):
            return r
    return best


def random_system(seed, n, m):
    rng = Lcg(seed)
    masks = [rng.below(1 << n) for _ in range(m)]
    sys_ = SetSystemWindow(range(n), masks)
    return sys_, masks


def test_ground_sorted_and_indexed():
    sys_ = SetSystemWindow([5, ordinal(2), 9], [])
    assert sys_.ground == (ordinal(2), ordinal(5), ordinal(9))
    assert sys_.n == 3
    assert sys_.subset_mask([9, 2]) == 0b101
    assert sys_.mask_points(0b101) == (ordinal(2), ordinal(9))


def test_ground_rejects_duplicates():
    with pytest.raises(DomainError):
        SetSystemWindow([1, 2, ordinal(1)], [])
    with pytest.raises(DomainError, match="duplicate"):
        SetSystemWindow.from_window(segment_window(3), [1, 1])


def test_bad_bitmask_and_foreign_point():
    with pytest.raises(DomainError):
        SetSystemWindow([0, 1], [4])
    sys_ = SetSystemWindow([0, 1], [])
    with pytest.raises(DomainError):
        sys_.subset_mask([7])


def test_ground_points_are_ordinals():
    for ground in (["b", "a"], [0, "a"], [0, True]):
        with pytest.raises(DomainError, match="not an ordinal"):
            SetSystemWindow(ground, [])
    with pytest.raises(DomainError, match="not an ordinal"):
        SetSystemWindow([0, 1], [["a"]])


def test_trace_matches_enumeration():
    for seed in range(30):
        sys_, masks = random_system(seed, 6, 5)
        rng = Lcg(1000 + seed)
        a = [p for p in sys_.ground if rng.below(2)]
        assert trace(sys_, a) == brute_trace(sys_.ground, masks, a)


def test_is_shattered_matches_enumeration():
    hits = 0
    for seed in range(60):
        sys_, masks = random_system(seed, 5, 12)
        for a in [(0, 1), (2, 4), (0, 1, 3)]:
            pts = [ordinal(x) for x in a]
            got = is_shattered(sys_, pts)
            assert got == brute_shattered(sys_.ground, masks, pts)
            hits += got
    assert hits > 0


def test_vc_dim_matches_brute():
    for seed in range(25):
        sys_, masks = random_system(seed, 6, 10)
        assert vc_dim(sys_) == brute_vc(sys_.ground, masks)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=0, max_size=10))
def test_vc_dim_matches_brute_property(masks):
    sys_ = SetSystemWindow(range(5), masks)
    assert vc_dim(sys_) == brute_vc(sys_.ground, masks)


def test_vc_dim_extremes():
    assert vc_dim(SetSystemWindow(range(3), [])) == 0
    assert vc_dim(SetSystemWindow(range(3), [0b101])) == 0
    full = SetSystemWindow(range(3), list(range(8)))
    assert vc_dim(full) == 3


def test_hunt_finds_certified_sets():
    full = SetSystemWindow(range(4), list(range(16)))
    for k in range(5):
        found = hunt_shattered(full, k)
        assert found is not None and len(found) == k
        assert is_shattered(full, found)


def test_hunt_none_is_sound_when_exhaustive():
    for seed in range(25):
        sys_, masks = random_system(seed, 5, 6)
        d = brute_vc(sys_.ground, masks)
        assert hunt_shattered(sys_, d + 1) is None
        if d:
            assert hunt_shattered(sys_, d) is not None


def test_hunt_returns_the_first_shattered_set():
    found = 0
    for seed in range(40):
        sys_, masks = random_system(seed, 7, 5 + seed % 20)
        for k in range(5):
            want = next((c for c in combinations(sys_.ground, k)
                         if brute_shattered(sys_.ground, masks, c)), None)
            assert hunt_shattered(sys_, k) == want, (seed, k)
            found += k >= 2 and want is not None
    assert found > 40


def test_hunt_k_zero():
    assert hunt_shattered(SetSystemWindow(range(2), [0]), 0) == ()
    assert hunt_shattered(SetSystemWindow(range(2), []), 0) is None


def test_guards():
    # only the exact dimension is guarded; shattering questions answer at any size
    wide = SetSystemWindow(range(26), [])
    with pytest.raises(GuardExceededError):
        vc_dim(wide)
    assert is_shattered(wide, list(range(26))) is False
    assert hunt_shattered(wide, 26) is None


def test_sauer_bound_holds_at_true_dimension():
    for seed in range(20):
        sys_, masks = random_system(seed, 6, 12)
        assert sauer_check(sys_, vc_dim(sys_))


def test_sauer_violation():
    # 2 distinct traces on one point exceed the d=0 bound of 1
    sys_ = SetSystemWindow([0], [0b0, 0b1])
    assert not sauer_check(sys_, 0)
    assert sauer_check(sys_, 1)


def test_shatter_certificate_complete():
    full = SetSystemWindow(range(3), list(range(8)))
    cert = shatter_certificate(full, [0, 2])
    assert cert["set"] == ["0", "2"]
    assert set(cert["witnesses"]) == {"0", "1", "2", "3"}
    pts = [ordinal(0), ordinal(2)]
    for sub, idx in cert["witnesses"].items():
        chosen = {pts[c] for c in range(2) if int(sub) >> c & 1}
        member = mask_to_set(full.masks[idx], full.ground)
        assert member & set(pts) == chosen


def test_shatter_certificate_rejects_unshattered():
    sys_ = SetSystemWindow(range(2), [0b00, 0b11])
    with pytest.raises(DomainError, match="not shattered"):
        shatter_certificate(sys_, [0, 1])


def test_example_R_is_rank_comparison(tower, p):
    # the order attached to a natural runs downward
    assert tower.rank(9, 5) < tower.rank(9, 2)
    assert tower.turnstile(9, 2, 5)
    assert not tower.turnstile(9, 5, 2)
    assert not tower.turnstile(9, 3, 3)
    w2 = p("w*2")
    assert tower.turnstile(w2, W + 1, 0) == (
        tower.rank(w2, 0) < tower.rank(w2, W + 1)
    )


def test_cond4_triples(tower):
    assert cond4_check([1, 2, 5], tower)
    assert cond4_check([0, W, W + 3], tower)
    with pytest.raises(DomainError):
        cond4_check([1, 2], tower)
    with pytest.raises(DomainError):
        cond4_check([0, 1, 2, 5], tower)


def test_cond4_random_triples(tower, p):
    rng = Lcg(7)
    w2 = p("w*2")
    for _ in range(40):
        pts = set()
        while len(pts) < 3:
            pts.add(tower.nth(w2, rng.below(30)))
        assert cond4_check(pts, tower)


def segment_window(k):
    members = tuple(oset(range(i + 1)) for i in range(k))
    return FamilyWindow(bound=W, seed=0, members=members)


def test_rmk_true_with_witness():
    win = segment_window(6)
    res = rmk_eval(1, 1, [0, 2], win)
    assert res.value is RmkValue.TRUE_IN_WINDOW
    assert bool(res)
    assert res.exists_witness == oset([0, 1, 2])
    assert res.universal_counterexample is None
    assert res.window_relative


def test_rmk_false_by_counterexample():
    # members omitting 3 exist but never contain 5
    win = segment_window(6)
    res = rmk_eval(0, 1, [5, 3], win)
    assert res.value is RmkValue.FALSE_IN_WINDOW
    assert not bool(res)
    assert res.universal_counterexample == oset([0])


def test_rmk_false_without_match():
    # no member contains 2 while omitting 1
    win = segment_window(6)
    res = rmk_eval(1, 2, [0, 2, 1], win)
    assert res.value is RmkValue.FALSE_IN_WINDOW
    assert res.exists_witness is None
    assert res.universal_counterexample is None


def test_rmk_validation():
    win = segment_window(3)
    with pytest.raises(DomainError):
        rmk_eval(2, 1, [0, 1], win)
    with pytest.raises(DomainError):
        rmk_eval(1, 1, [0, 1, 2], win)
    with pytest.raises(DomainError):
        rmk_eval(0, 4, [0, 1, 2, 3, 4], win)


def test_from_window_restricts_ground(tower):
    win = enumerate_family(W, 8, 1, tower)
    sys_ = SetSystemWindow.from_window(win, ground=[0, 1, 2])
    assert sys_.ground == (ordinal(0), ordinal(1), ordinal(2))
    for m, mem in zip(sys_.masks, win.members):
        assert mask_to_set(m, sys_.ground) == set(mem) & {
            ordinal(0),
            ordinal(1),
            ordinal(2),
        }


def test_from_window_default_ground(tower):
    win = enumerate_family(W, 6, 1, tower)
    sys_ = SetSystemWindow.from_window(win)
    pool = set()
    for mem in win.members:
        pool.update(mem)
    assert set(sys_.ground) == pool
