"""Every verify check can fail: a planted fault turns each one red.

Each case plants one fault with ``monkeypatch`` and runs one check at the
default configuration on a fresh context; the check must print a FAIL line
under its own name.  A check that no fault can turn red would show nothing.
When these cases were written, every check had one whose fault turned no
other check red; ``tail_upwards`` and ``close_is_segment_and_input`` turn
several red.  Faults the checks cannot see, such as a closure returned out
of order, a prefix that passes the descent ceiling or a run stage listed out
of order, are planted under the property test in ``test_family.py``,
``test_ordinals.py`` or ``test_omega.py`` that can.  Two more cases make
one check's body raise under ``verify all``: a ceiling must become that
check's FAIL line and leave the other 13 as they are, a domain error must
end the run in its ``error:`` line.  ``memo_one_high``, a limit order's
``_read`` memo that keeps each rank it works out plus one, is the control
for that memo: it turns ``aa-almost-agree`` red, and in either limit order
class alone ``test_rank_memo_changes_no_answer_and_no_growth``.
"""

import pathlib
from itertools import combinations
from math import comb

import pytest

from ordtower import AAOrders, Tower, cli, cofinal_extend, family, ordinals, oset, parse_ordinal, verify
from ordtower.errors import DomainError, IterationCeilingError
from ordtower.omega import NewLamOrder, PatchedOrder, RunOrder
from ordtower.tower import BlockOrder, PrependOrder

import test_family  # the property test of closures and windows
import test_omega  # the read contract of every order class
import test_ordinals  # the prefix-vs-index comparison of enumerations

_CHECKS = {
    "tower-trichotomy-roundtrip": (verify._check_trichotomy, Tower),
    "ordinal-literal-roundtrip": (verify._check_literal_roundtrip, None),
    "closure-extend-sound": (verify._check_extend_sound, Tower),
    "closure-close-sound": (verify._check_close_sound, Tower),
    "ladder-biconditional": (verify._check_ladder, Tower),
    "closed-alltriples-oracle": (verify._check_closed_oracle, Tower),
    "cond4-triples": (verify._check_cond4, Tower),
    "window-vc-dim": (verify._check_window_vc, Tower),
    "sauer-windows": (verify._check_sauer, Tower),
    "section-size-identity": (verify._check_section, Tower),
    "trace-brute-oracle": (verify._check_trace_oracle, Tower),
    "aa-order-type": (verify._check_order_type, AAOrders),
    "aa-almost-agree": (verify._check_almost_agree, AAOrders),
    "adjust-unit-law": (verify._check_adjust_unit, AAOrders),
}


# -- the faults: each takes monkeypatch and plants one ----------------------


def nth_late_from_50(m):
    # only the trichotomy check asks the tower for positions past 49
    nth = Tower.nth
    m.setattr(Tower, "nth", lambda self, alpha, k: nth(self, alpha, k + (k >= 50)))


def tail_upwards(m):
    # PrependOrder._nth lists lam, lam+1, ... where _rank has lam+m-1 first
    nth = PrependOrder._nth
    m.setattr(PrependOrder, "_nth",
              lambda self, k: self.lam.plus(k) if k < self.m else nth(self, k))


def verbose_literals(m):
    # str keeps every ^e and *c, so w prints as w^1*1, which still parses to w
    def term(e, c):
        return str(c) if e.is_zero() else f"w^{e}*{c}" if e.is_natural() else f"w^({e})*{c}"

    m.setattr(ordinals, "_term_str", term)


def drops_least_added(m):
    def extend(a, tower):
        ext = cofinal_extend(a, tower)
        least = min(x for x in ext if x not in set(a))
        return tuple(x for x in ext if x != least)

    m.setattr(verify, "cofinal_extend", extend)


def close_is_segment_and_input(m):
    def close(self, alpha, a):
        lam, n = self._check(alpha).split()
        return oset([*a, *map(lam.plus, range(n))])

    m.setattr(Tower, "close", close)


def close_at_a_limit_is_the_input(m):
    # cofinal_extend closes only at successors, so closure-extend-sound stays green
    close = Tower.close
    m.setattr(Tower, "close",
              lambda self, alpha, a: oset(a) if alpha.is_limit() else close(self, alpha, a))


def close_leaves_the_stage_prefix_unsorted(m):
    # lam's stage prefix in its order at lam, then the tail: the same points,
    # so the closure checks, which sort what close returns, stay green
    def close(self, alpha, a):
        lam, n = self._check(alpha).split()
        below = [x for x in oset(a) if x < lam]
        head = []
        if below:
            blocks = self._order_at(lam)
            head = blocks._seq[:blocks.cover(below)]
        return tuple(head + [lam.plus(j) for j in range(n)])

    m.setattr(Tower, "close", close)


def ladder_skips_least_free(m):
    least = family._least_unused
    m.setattr(family, "_least_unused", lambda used, bound: least({*used, least(used, bound)}, bound))


def segment_tail_one_high(m):
    # the n points below lam+m, 0 < n <= m, must start at lam+(m-n+1), one too high
    def closed(a, tower):
        for n, alpha in enumerate(a):
            lam, k = alpha.split()
            if k:
                ok = not n or a[0] == lam.plus(k - n + 1) if n <= k else a[n - k] == lam
            else:
                ok = not n or max(tower.rank(alpha, beta) for beta in a[:n]) == n - 1
            if not ok:
                return False
        return True

    m.setattr(verify, "_closed_by_segments", closed)


def closed_one_position_short(m):
    def is_closed(a, tower):
        a = oset(a)
        for k, alpha in enumerate(a):
            seen = 0
            for beta in a[:k]:
                r = tower.rank(alpha, beta)
                while seen < r - 1:
                    if tower.nth(alpha, seen) not in a:
                        return False
                    seen += 1
        return True

    m.setattr(verify, "is_closed", is_closed)


def cond4_increasing_only(m):
    def cond4(a, tower):
        x, y, z = oset(a)
        return tower.turnstile(z, y, x)

    m.setattr(verify, "cond4_check", cond4)


def vc_dim_off_by_one(m):
    vc_dim = verify.vc_dim
    m.setattr(verify, "vc_dim", lambda sys_: vc_dim(sys_) + 1)


def sauer_binomials_over_d(m):
    m.setattr(verify, "sauer_check", lambda sys_, d: len(set(sys_.masks))
              <= sum(comb(d, i) for i in range(d + 1)))


def small_windows_unclosed(m):
    # only sauer-windows asks for 12-member windows; here each member is one
    # of 12 subsets of {0, 1, w, w+1} plus 2..5 and w+2..w+5, not closed.  The
    # ground skips the points in every member, so it is {0, 1, w, w+1} and
    # carries 12 traces against a bound of 11 (12 ground points would allow 79)
    enumerate_family = verify.enumerate_family
    w = parse_ordinal("w")
    fill = [*range(2, 6), *map(w.plus, range(2, 6))]
    picks = [c for r in (1, 2, 3) for c in combinations([0, 1, w, w.plus(1)], r)][:12]

    def window(bound, count, seed, tower):
        if count != 12:
            return enumerate_family(bound, count, seed, tower)
        return family.FamilyWindow(bound, seed, tuple(oset([*c, *fill]) for c in picks))

    m.setattr(verify, "enumerate_family", window)


def turnstile_with_le(m):
    def turnstile(self, alpha, beta, gamma):
        return beta < alpha and gamma < alpha and self.rank(alpha, gamma) <= self.rank(alpha, beta)

    m.setattr(Tower, "turnstile", turnstile)


def trace_drops_empty(m):
    trace = verify.trace
    m.setattr(verify, "trace", lambda sys_, a: trace(sys_, a) - {frozenset()})


def limit_nth_one_late(m):
    # of the aa checks only aa-order-type asks a limit order for nth
    for cls in (RunOrder, NewLamOrder):
        m.setattr(cls, "_nth", lambda self, k: BlockOrder._nth(self, k + 1))


def swaps_a_pair(m):
    # the check's second certificate is (w, w^2+w*13+1) with no points, so its
    # candidates are the naturals 0..59; swap two near the front of the upper order
    target, order = parse_ordinal("w^2+w*13+1"), AAOrders.order

    def swapped(self, alpha):
        got = order(self, alpha)
        if alpha != target:
            return got
        head = got.prefix(1 + max(got.rank(0), got.rank(30)))
        i, j = head.index(0), head.index(30)
        head[i], head[j] = head[j], head[i]
        return PatchedOrder(got, head)

    m.setattr(AAOrders, "order", swapped)


def empties_certificates(m):
    exception_set = AAOrders.exception_set
    m.setattr(AAOrders, "exception_set",
              lambda self, beta, alpha: exception_set(self, beta, alpha)._replace(points=()))


def drops_both_ends_of_a_pair(m):
    # the check's first certificate, (w^2+w*3+8, w^2+w*8+6), without the two
    # ends of one pair the orders place differently.  Dropping either end
    # alone leaves the pair covered by its partner, and no pair below
    # w^2+w*3+8 outside the certificate disagrees (ROADMAP item 6); without
    # both, the sampler draws that pair
    target = parse_ordinal("w^2+w*3+8"), parse_ordinal("w^2+w*8+6")
    dropped = {parse_ordinal("w^2+w+6"), parse_ordinal("w^2+w*3+6")}
    exception_set = AAOrders.exception_set

    def shrunk(self, beta, alpha):
        got = exception_set(self, beta, alpha)
        if (beta, alpha) != target:
            return got
        return got._replace(points=tuple(x for x in got.points if x not in dropped))

    m.setattr(AAOrders, "exception_set", shrunk)


class _OneHigh(dict):
    def __setitem__(self, x, r):
        super().__setitem__(x, r + 1)


def memo_one_high(m, classes=(RunOrder, NewLamOrder)):
    # the first read of a rank answers right, every repeat one too high
    for cls in classes:
        def planted(self, ctx, eta, init=cls.__init__):
            init(self, ctx, eta)
            self._read = _OneHigh()

        m.setattr(cls, "__init__", planted)


def adjust_ignores_certificate(m):
    m.setattr(verify, "adjust_one", lambda inner, outer, cert: outer)


_FAULTS = [
    ("tower-trichotomy-roundtrip", tail_upwards, "roundtrip failed at alpha="),
    ("tower-trichotomy-roundtrip", nth_late_from_50, "roundtrip failed at alpha="),
    ("ordinal-literal-roundtrip", verbose_literals,
     "Ordinal('w^2*9+w^1*2+2') is not printed canonically"),
    ("closure-extend-sound", drops_least_added, "extension of "),
    ("closure-close-sound", close_is_segment_and_input, "close("),
    ("closure-close-sound", close_at_a_limit_is_the_input, "close(w, "),
    ("ladder-biconditional", ladder_skips_least_free, "rung 1 at 3 is not the least free point"),
    ("closed-alltriples-oracle", segment_tail_one_high, "routes disagree on "),
    ("closed-alltriples-oracle", closed_one_position_short, "routes disagree on ['1', 'w*3']"),
    ("cond4-triples", cond4_increasing_only, "no arrangement works for "),
    ("window-vc-dim", vc_dim_off_by_one, "exact dimension 3 != 2"),
    ("sauer-windows", sauer_binomials_over_d, "trace count exceeds the bound at seed 1"),
    ("sauer-windows", small_windows_unclosed, "trace count exceeds the bound at seed 1"),
    ("section-size-identity", turnstile_with_le, "point "),
    ("trace-brute-oracle", trace_drops_empty, "trace mismatch on ground "),
    ("aa-order-type", tail_upwards, "roundtrip failed at w+3 on w"),
    ("aa-order-type", limit_nth_one_late, "roundtrip failed at w*2 on "),
    ("aa-almost-agree", swaps_a_pair, "orders at w and w^2+w*13+1 disagree on ("),
    ("aa-almost-agree", empties_certificates,
     "orders at w^2+w*3+8 and w^2+w*8+6 disagree on (w^2+w*3+7, w^2+w+3)"),
    ("aa-almost-agree", drops_both_ends_of_a_pair,
     "orders at w^2+w*3+8 and w^2+w*8+6 disagree on (w^2+w+6, w^2+w*3+6)"),
    ("aa-almost-agree", memo_one_high,
     "orders at w^2+w*3+8 and w^2+w*8+6 disagree on (w^2+w+23, w^2+w*2+23)"),
    ("adjust-unit-law", adjust_ignores_certificate, "hand example produced ['0', '1', '2']"),
]


def test_every_check_has_a_planted_fault():
    ref = pathlib.Path(__file__).resolve().parents[1] / "bench" / "refs" / "verify-all.txt"
    names = [line.split(":")[0].split()[1] for line in ref.read_text().splitlines()[1:]]
    assert len(names) == 14 and set(names) == set(_CHECKS) == {c for c, _, _ in _FAULTS}


@pytest.mark.parametrize("check, fault, detail", _FAULTS,
                         ids=[f"{c}-{f.__name__}" for c, f, _ in _FAULTS])
def test_every_check_catches_its_planted_fault(check, fault, detail, monkeypatch):
    fn, ctx = _CHECKS[check]
    fault(monkeypatch)
    res = fn(verify.VerifyConfig()) if ctx is None else fn(verify.VerifyConfig(), ctx())
    assert res.line().startswith(f"FAIL {check}: {detail}")


_VERIFY_ALL = pathlib.Path(__file__).resolve().parents[1] / "bench" / "refs" / "verify-all.txt"


def raises(error):
    def planted(*args):
        raise error("planted")

    return planted


def test_a_ceiling_in_one_check_is_its_fail_line(monkeypatch, capsys):
    # only ladder-biconditional builds a ladder
    monkeypatch.setattr(verify, "ladder", raises(IterationCeilingError))
    assert cli.run(["verify", "all", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    want = _VERIFY_ALL.read_text().splitlines()[1:]
    want[4] = "FAIL ladder-biconditional: ceiling: planted"
    assert (out.splitlines(), err) == (want, "")


def test_a_domain_error_in_one_check_ends_the_run(monkeypatch, capsys):
    # it rejects the invocation, so no check prints a verdict
    monkeypatch.setattr(verify, "ladder", raises(DomainError))
    assert cli.run(["verify", "all", "--seed", "1"]) == 1
    assert capsys.readouterr() == ("", "error: domain: planted\n")


def test_closure_property_catches_an_unsorted_stage_prefix(monkeypatch):
    close_leaves_the_stage_prefix_unsorted(monkeypatch)
    with pytest.raises(AssertionError):
        test_family.test_closures_and_windows_are_built_sorted()
    assert verify._check_close_sound(verify.VerifyConfig(), Tower()).passed


def test_prefix_comparison_catches_a_descent_that_forgets_hit_steps(monkeypatch):
    # a state found by an earlier index counts no further steps, so the
    # prefix answers where the index path stops at the ceiling
    descend = ordinals._descend

    def forgetful(top, i, eta, states):
        got = descend(top, i, eta, states)
        states.update((state, (value, 0)) for state, (value, _) in states.items())
        return got

    monkeypatch.setattr(ordinals, "_enum_answers", {})
    eta = parse_ordinal("w^w*2")
    assert test_ordinals.prefix_matches_index_path(eta, 200, 2)
    monkeypatch.setattr(ordinals, "_descend", forgetful)
    assert not test_ordinals.prefix_matches_index_path(eta, 200, 2)
    monkeypatch.setattr(ordinals, "CEILING", 2)
    assert len(ordinals.enum_prefix(eta, 200)) == 200
    ordinals._enum_answers.clear()
    with pytest.raises(IterationCeilingError, match="exceeded 2 descent steps"):
        test_ordinals._prefix_by_index(eta, 200)


def run_tail_after_its_chunk(m):
    # each run stage lists its tail point after its span of lam's order, not
    # before it (at w*2 every stage has one); nth reads span, so the two agree
    span = RunOrder._span

    def late_tail(self, a, b):
        got = []
        for k in range(a, b):
            i = self._stage_at(k)
            lo, hi = self._run_ends[i - 1], self._run_ends[i]
            got += span(self, lo, lo + 1) if k == hi - 1 else span(self, k + 1, k + 2)
        return got

    m.setattr(RunOrder, "_span", late_tail)


def test_order_contract_catches_a_run_stage_with_its_tail_point_last(monkeypatch):
    contract = test_omega.test_every_order_class_derives_its_reads_from_span_and_bound
    asks = [(0, 12, parse_ordinal("w"))]
    contract.hypothesis.inner_test("run", asks)
    run_tail_after_its_chunk(monkeypatch)
    with pytest.raises(AssertionError):
        contract.hypothesis.inner_test("run", asks)


def natural_from_the_stage_before(m):
    # a natural n opens the second part of block n+1, so its position is
    # o_{n+1}'s rank of n; o_n ranks it among fewer points
    chain_rank = NewLamOrder._chain_rank

    def early(self, x):
        if x.is_natural():
            return self.ctx.chain_order(self.eta, x.natural())._rank(x)
        return chain_rank(self, x)

    m.setattr(NewLamOrder, "_chain_rank", early)


def test_listed_positions_catch_a_natural_read_one_stage_early(monkeypatch):
    natural_from_the_stage_before(monkeypatch)
    with pytest.raises(AssertionError):
        test_omega.test_new_lam_ranks_match_listed_positions(parse_ordinal)


@pytest.mark.parametrize("cls", [RunOrder, NewLamOrder])
def test_rank_memo_test_catches_a_memo_one_high(cls, monkeypatch):
    test_omega.test_rank_memo_changes_no_answer_and_no_growth(parse_ordinal)
    memo_one_high(monkeypatch, [cls])
    with pytest.raises(AssertionError):
        test_omega.test_rank_memo_changes_no_answer_and_no_growth(parse_ordinal)
