"""Arithmetic, literals and enumeration of the CNF ordinals."""

import copy
import hashlib
import pickle
import tracemalloc
from itertools import count, islice

import pytest
from hypothesis import given, strategies as st

from ordtower import (
    ONE,
    W,
    ZERO,
    DomainError,
    IterationCeilingError,
    NotALimitError,
    Ordinal,
    OrdinalSyntaxError,
    add,
    compare,
    difference,
    enum_below,
    enum_prefix,
    fund_seq,
    ordinal,
    oset,
    parse_ordinal,
)
from ordtower.ordinals import _as_ord, _position

p = parse_ordinal


def small_ordinals(max_exp: int = 3):
    """Random CNF values below w^(max_exp+1), built from explicit terms."""
    def build(draw_terms):
        exps = sorted({e for e, _ in draw_terms}, reverse=True)
        coeffs = dict(draw_terms)
        return Ordinal.from_terms([(ordinal(e), coeffs[e]) for e in exps])
    return st.lists(
        st.tuples(st.integers(0, max_exp), st.integers(1, 9)),
        max_size=4,
    ).map(build)


def test_literal_examples():
    assert str(p("w^2*3+w+4")) == "w^2*3+w+4"
    assert str(p("w^1*1")) == "w"
    assert str(p("0")) == "0"
    assert p("1+w") == W
    assert p("w+w") == p("w*2")
    assert p("w^(w)") == p("w^w")
    assert p("w*0") == ZERO


def test_literal_rejects():
    for bad in ["", "w^", "+1", "w++", "w^2*", "2w", "w^-1"]:
        with pytest.raises(OrdinalSyntaxError):
            p(bad)


def test_not_equal_follows_eq():
    assert ordinal(3) != 4
    assert W != 3
    assert ordinal(3) != "3"
    assert not (ordinal(3) != 3)


def test_equal_values_are_one_object():
    assert ordinal(5000) is ordinal(5000)
    assert parse_ordinal("w+w") is add(W, W)
    assert Ordinal.from_terms([(p("w+1"), 3), (0, 2)]) is p("w^(w+1)*3+2")
    assert Ordinal.__hash__ is object.__hash__


def test_equal_term_pairs_are_one_object():
    # the parts of the CNF are hash-consed too: each term pair and each key
    # pair exists once, whichever values hold it and however they were built
    a, b = p("w*3+1"), Ordinal.from_terms([(1, 3), (0, 2)])
    assert a._terms[0] is b._terms[0] and a._key[0] is b._key[0]
    c, d = p("w+5"), add(p("w^2"), 5)
    assert c._terms[-1] is d._terms[-1] is ordinal(5)._terms[0]
    assert c._key[-1] is d._key[-1] is ordinal(5)._key[0]
    assert a._terms == ((ONE, 3), (ZERO, 1)) and a._key == (((((), 1),), 3), ((), 1))
    for x in [a, b, c, d]:
        assert pickle.loads(pickle.dumps(x)) is x and copy.deepcopy(x) is x


@given(small_ordinals(), small_ordinals())
def test_equality_is_identity(a, b):
    assert (a == b) == (a is b)
    assert parse_ordinal(str(a)) is a


def test_int_interop():
    assert ordinal(3) == 3
    assert 3 == ordinal(3)
    assert ordinal(3) < 5
    assert W != 3
    assert W != "w"


def _pickle_roundtrip(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy, _pickle_roundtrip])
def test_copy_and_pickle_keep_identity(roundtrip):
    for x in [ZERO, ONE, W, ordinal(5000), p("w^(w+1)*3+w*2+5")]:
        assert roundtrip(x) is x
    xs = [W, (ONE, p("w^w"))]
    assert roundtrip(xs) == xs and roundtrip(xs)[1][1] is xs[1][1]
    assert ZERO == 0 and ZERO.is_zero() and str(ZERO) == "0"


def test_compare_basics():
    assert compare(ZERO, ONE) == -1
    assert compare(W, p("w")) == 0
    assert compare(p("w^2"), p("w*900+5")) == 1
    assert p("w+1") < p("w*2") < p("w^2") < p("w^2+1")


def test_add_absorption():
    assert add(3, W) == W
    assert add(W, 3) == p("w+3")
    assert add(p("w+5"), p("w^2")) == p("w^2")
    assert add(p("w^2+w"), p("w*2+1")) == p("w^2+w*3+1")


def test_difference():
    assert difference(p("w*2+3"), p("w*2")) == ordinal(3)
    assert difference(p("w^2"), p("w^2")) == ZERO
    with pytest.raises(DomainError):
        difference(W, p("w+1"))


def test_split_and_structure():
    lam, m = p("w^2+w*3+7").split()
    assert lam == p("w^2+w*3") and m == 7
    assert p("w*4").is_limit()
    assert not p("w*4+1").is_limit()
    assert p("17").is_natural() and p("17").natural() == 17
    with pytest.raises(DomainError):
        p("w+1").natural()


def test_fund_seq_values():
    assert fund_seq(W, 4) == ordinal(4)
    assert fund_seq(p("w*3"), 5) == p("w*2+5")
    assert fund_seq(p("w^2"), 3) == p("w*3")
    assert fund_seq(p("w^2*2"), 2) == p("w^2+w*2")
    assert fund_seq(p("w^w"), 2) == p("w^2")
    with pytest.raises(NotALimitError):
        fund_seq(p("w+1"), 0)


def test_fund_seq_increasing_below():
    for s in ["w*2", "w^2", "w^2+w", "w^3", "w^2*4"]:
        lam = p(s)
        vals = [fund_seq(lam, n) for n in range(12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < lam for v in vals)


def test_enum_below_small():
    assert enum_prefix(ordinal(3), 3) == [ordinal(2), ordinal(1), ordinal(0)]
    assert enum_prefix(W, 5) == [ordinal(i) for i in range(5)]
    # peel the successor top, then enumerate the limit part
    assert enum_below(p("w+2"), 0) == p("w+1")
    assert enum_below(p("w+2"), 1) == W
    assert enum_below(p("w+2"), 2) == ZERO


def test_enum_below_surjective_prefix():
    seen = set(enum_prefix(p("w*2"), 40))
    for k in range(10):
        assert ordinal(k) in seen
        assert add(W, k) in seen or k > 8


def test_enum_injective_at_limits():
    pre = enum_prefix(p("w^2"), 300)
    assert len(set(pre)) == 300
    assert all(x < p("w^2") for x in pre)


_ref_lists: dict = {}
_ref_walks: dict = {}


def ref_enum_below(eta, n):
    """The enumeration as first written: peel one successor per step, then
    scan every block i <= d on diagonal d, exhausted ones included."""
    while not eta.is_limit():
        prev = eta.pred()
        if n == 0:
            return prev
        if prev.is_zero():
            return ZERO
        eta, n = prev, n - 1
    got = _ref_lists.setdefault(eta, [])
    if eta not in _ref_walks:
        _ref_walks[eta] = _ref_walk(eta)
    while len(got) <= n:
        got.append(next(_ref_walks[eta]))
    return got[n]


def _ref_walk(eta):
    for d in count(0):
        for i in range(d + 1):
            lo = ZERO if i == 0 else fund_seq(eta, i - 1)
            diff = difference(fund_seq(eta, i), lo)
            j = d - i
            if diff.is_zero() or (diff.is_natural() and j >= diff.natural()):
                continue
            yield add(lo, ref_enum_below(diff, j))


ENUM_ETAS = [x for x in enum_prefix(p("w^3+w*2+3"), 200) if x > ZERO]


@given(st.sampled_from(ENUM_ETAS), st.integers(0, 199))
def test_enum_below_matches_full_diagonal_walk(eta, n):
    got = enum_below(eta, n)
    assert got == ref_enum_below(eta, n)
    if eta.is_natural() and n >= eta.natural():
        assert got == ZERO


def ref_positions(eta):
    """The diagonal walk below the limit eta, diagonal by diagonal, as
    (start, lam', m', j) per position: the reference for _position."""
    live: list = []  # (i, start, lam', m') of the blocks not yet exhausted
    lo = ZERO
    for d in count(0):
        kept = []
        for blk in live:
            i, start, lam, m = blk
            if lam is ZERO and d - i >= m:
                continue
            kept.append(blk)
            yield start, lam, m, d - i
        hi = fund_seq(eta, d)  # block d, reached as the diagonal's last entry
        length = difference(hi, lo)
        if length:
            lam, m = length.split()
            kept.append((d, lo, lam, m))
            yield lo, lam, m, 0
        live, lo = kept, hi


# one or two limits per shape of the blocks [fund_seq(eta, i-1), fund_seq(eta, i))
SHAPE_ETAS = [
    "w", "w*3", "w^2+w", "w^w+w",  # blocks from 1 on are single points
    "w^2", "w^(w+1)",  # the others, with block 0 empty
    "w^2*2", "w^3+w^2",  # block 0 infinite
    "w^w", "w^(w^2)",  # block 0 one point
    "w^w*2", "w^(w+1)+w^w",  # block 0 an infinite successor
]
_ref_position_lists: dict = {}


@pytest.mark.parametrize("eta", SHAPE_ETAS)
@given(st.integers(0, 2999))
def test_position_matches_the_dovetailed_walk(eta, n):
    if eta not in _ref_position_lists:
        _ref_position_lists[eta] = list(islice(ref_positions(p(eta)), 3000))
    assert _position(p(eta), n) == _ref_position_lists[eta][n]


@pytest.mark.parametrize("eta", SHAPE_ETAS)
@given(st.integers(0, 199))
def test_enum_below_matches_full_diagonal_walk_at_each_shape(eta, n):
    assert enum_below(p(eta), n) == ref_enum_below(p(eta), n)


def test_deep_index_answers_in_constant_memory(monkeypatch):
    from ordtower import ordinals

    monkeypatch.setattr(ordinals, "_enum_answers", {})
    eta, want = p("w^2"), p("w*8989+5152")
    tracemalloc.start()
    try:
        assert enum_below(eta, 10**8) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enum_below_finite_repeats_zero():
    assert enum_prefix(ordinal(3), 6) == [ordinal(k) for k in [2, 1, 0, 0, 0, 0]]
    assert enum_below(ordinal(1), 5) == ZERO
    with pytest.raises(DomainError):
        enum_below(ZERO, 0)


def test_oset():
    assert oset([3, 1, 3, 0]) == (ZERO, ordinal(1), ordinal(3))
    assert oset([]) == ()


def nested_ordinals():
    """CNF values with ordinal exponents, such as w^(w+1)*2+w^w+3."""
    def build(terms):
        coeffs = dict(terms)  # the last coefficient drawn for an exponent
        return Ordinal.from_terms(sorted(coeffs.items(), reverse=True))
    return st.recursive(
        st.integers(0, 3).map(ordinal),
        lambda inner: st.lists(st.tuples(inner, st.integers(1, 3)), min_size=1,
                               max_size=3).map(build),
        max_leaves=8)


@given(st.lists(st.one_of(nested_ordinals(), st.integers(0, 20)), max_size=12))
def test_oset_sorts_by_the_ordinal_order(xs):
    # oset sorts by Ordinal._key; the reference sorts by Ordinal.__lt__
    got = oset(xs)
    assert got == tuple(sorted(set(map(_as_ord, xs))))
    assert all(a < b for a, b in zip(got, got[1:]))


def test_as_ord_takes_ordinals_and_ints_only():
    x = p("w^(w+1)*2+w^w+3")
    assert _as_ord(x) is x
    assert _as_ord(7) is ordinal(7)
    for bad in [True, False, 1.0, "w", None]:
        with pytest.raises(DomainError):
            _as_ord(bad)


@given(small_ordinals())
def test_parse_str_roundtrip(x):
    assert parse_ordinal(str(x)) == x


@given(small_ordinals(), small_ordinals(), small_ordinals())
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(small_ordinals(), small_ordinals())
def test_trichotomy(a, b):
    assert (compare(a, b), compare(b, a)) in {(-1, 1), (0, 0), (1, -1)}
    assert (a < b) + (a == b) + (a > b) == 1


@given(small_ordinals(), small_ordinals())
def test_add_right_monotone(a, b):
    if b > ZERO:
        assert add(a, b) > a
    else:
        assert add(a, b) == a


@given(small_ordinals(), st.integers(0, 300))
def test_plus_adds_a_natural_and_undoes_split(a, m):
    assert a.plus(m) is add(a, m)
    lam, j = a.split()
    assert lam.plus(j) is a


@given(small_ordinals(), small_ordinals())
def test_difference_inverts_add(a, b):
    # left cancellation: a + d = a + b forces d = b
    assert difference(add(a, b), a) == b


def test_deep_enumeration_does_not_depend_on_history(monkeypatch):
    # the descent takes the same steps whatever the memos hold: an answer
    # does not turn into an error, or back, after other enumerations
    from ordtower import ordinals

    deep = p("w*99999999999999")  # index 0 needs about 10^14 steps
    monkeypatch.setattr(ordinals, "_enum_answers", {})
    assert enum_below(p("w*300"), 3) == p("w*298")
    with pytest.raises(IterationCeilingError, match="20000 descent steps"):
        enum_below(deep, 0)
    enum_prefix(p("w*100"), 50)
    assert enum_below(p("w*300"), 3) == p("w*298")
    with pytest.raises(IterationCeilingError, match="20000 descent steps"):
        enum_below(deep, 0)
    assert enum_below(deep, 3) == p("w*99999999999997")


def _listed_or_error(f, *args):
    try:
        return f(*args)
    except (DomainError, IterationCeilingError) as e:
        return type(e), str(e)


def _prefix_by_index(eta, n):
    return [enum_below(eta, i) for i in range(n)]


@given(st.sampled_from(ENUM_ETAS + [p(e) for e in SHAPE_ETAS]), st.integers(0, 400))
def test_enum_prefix_matches_enum_below(eta, n):
    from ordtower import ordinals

    want = _prefix_by_index(eta, n)
    ordinals._enum_answers.clear()  # so the prefix is listed, not read back
    assert enum_prefix(eta, n) == want


@given(st.sampled_from(ENUM_ETAS + [p(e) for e in SHAPE_ETAS + ["w*30", "w^2+w*12"]]),
       st.integers(0, 60), st.integers(1, 12))
def test_enum_prefix_fails_where_enum_below_does(eta, n, ceiling):
    # with a low ceiling some prefixes pass it; the first error is the same
    from ordtower import ordinals

    old = ordinals.CEILING
    ordinals.CEILING = ceiling
    try:
        ordinals._enum_answers.clear()
        want = _listed_or_error(_prefix_by_index, eta, n)
        ordinals._enum_answers.clear()
        assert _listed_or_error(enum_prefix, eta, n) == want
    finally:
        ordinals.CEILING = old
        ordinals._enum_answers.clear()


def test_enum_prefix_edges():
    assert enum_prefix(ZERO, 0) == [] and enum_prefix(p("w+2"), 0) == []
    with pytest.raises(DomainError, match="enum_below requires eta > 0"):
        enum_prefix(ZERO, 1)
    with pytest.raises(DomainError, match="count must be >= 0, got -1"):
        enum_prefix(W, -1)
    assert enum_prefix(ordinal(4), 7) == _prefix_by_index(ordinal(4), 7)
    assert enum_prefix(p("w*3+2"), 2) == [p("w*3+1"), p("w*3")]
    # index 0 below w*k takes k steps: 20,000 answer, 20,001 do not
    assert enum_prefix(p("w*20000"), 3) == _prefix_by_index(p("w*20000"), 3)
    for eta in ["w*20001", "w*99999999999999"]:
        with pytest.raises(IterationCeilingError) as e:
            enum_prefix(p(eta), 3)
        assert str(e.value) == f"enumeration below {eta} exceeded 20000 descent steps"


def test_enum_prefix_reads_a_whole_prefix_from_the_memo(monkeypatch):
    from ordtower import ordinals

    monkeypatch.setattr(ordinals, "_enum_answers", {})
    eta = p("w^2+w")
    want = enum_prefix(eta, 50)
    assert [ordinals._enum_answers[eta, i] for i in range(50)] == want
    monkeypatch.setattr(ordinals, "_prefix", None)  # any listing would fail
    assert enum_prefix(eta, 50) == want and enum_prefix(eta, 20) == want[:20]
    with pytest.raises(TypeError):
        enum_prefix(eta, 51)


def test_long_prefix_descends_each_state_once(monkeypatch):
    # about 21 descent steps per value here when every index descends on its
    # own (43,001 for the first 2,000 values); stopping at the states that
    # earlier indices took down leaves about two per value
    from ordtower import ordinals

    calls, position = [0], ordinals._position

    def counting(lam, n):
        calls[0] += 1
        return position(lam, n)

    monkeypatch.setattr(ordinals, "_position", counting)
    pre = enum_prefix(p("w^(w+1)+w^w"), 20000)
    assert str(pre[-1]) == "w^(w+1)+w^98*10+w^97+1"
    assert len(set(pre)) == 20000
    assert calls[0] < 3 * 20000


# sha256 over str(x) + ";" for the first 1,500 values; ENUM_ETAS above
# never reaches a limit exponent
ENUM_PREFIX_DIGESTS = {
    "w^w*3+w^2+4": "0fd9db78a286c475bff071bb5926a18a737555feb3381d473ec80b888319ff86",
    "w^(w+1)*2": "e04726b358fc21b908c29629953533070daf2327a1ffd1efe61b482e171f91dd",
    "w^(w^2)": "d689abc1172757014d776931be2619d8c35d5a1975e7e9a3de803639f0e9d9ec",
    "w^(w^w)+w": "56c259c86cb8ce3f65d6a34aaba64439bede6f56a985ce38349e50a8855f2b97",
    "w^3*5+w*7": "af9d1d431ad0d7399c2fcb0dc3ba2bafd3e6bcaf9588f6bdb0186d4f9d57f472",
    "w^(w*2+3)": "ea667d64ebe8fb86872c44567827118fef1ec96bbc9494a2be0eb563ab72a209",
    "w*150": "cb411800e3aba6af55d22c629027ca337fb1c8e108c2be0fc7aab7e8b426991e",
    "w^2*60+w*3": "b21a42c04f82d331059dccbc328c88af0eb123736a257a20d10d6d6e114e2b06",
}


@pytest.mark.parametrize("eta", sorted(ENUM_PREFIX_DIGESTS))
def test_enum_prefixes_pinned(eta):
    text = "".join(str(x) + ";" for x in enum_prefix(p(eta), 1500))
    assert hashlib.sha256(text.encode()).hexdigest() == ENUM_PREFIX_DIGESTS[eta]
