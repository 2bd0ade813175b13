"""Seeded verification suites over the whole construction.

Each check draws its own deterministic sample stream from the
configured seed, runs a property at desk scale, and reports one
PASS/FAIL line.  Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import wraps
from itertools import count

from .errors import DomainError, IterationCeilingError
from .family import cofinal_extend, enumerate_family, is_closed, ladder
from .omega import AAOrders, ExceptionCert, adjust_one
from .ordinals import ORD_KEY, Ordinal, W, add, enum_below, ordinal, oset, parse_ordinal
from .rng import Lcg
from .tower import CAP, ListOrder, Tower
from .vc import (
    SetSystemWindow,
    cond4_check,
    hunt_shattered,
    is_shattered,
    sauer_check,
    trace,
    vc_dim,
)


class VerifyConfig(namedtuple("VerifyConfig", "seed bound", defaults=(1, parse_ordinal("w^2")))):
    __slots__ = ()


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _check(name: str):
    """The check `name`: check(cfg, ctx) runs the body and wraps its (passed,
    detail); a work ceiling met in the body is its FAIL detail."""
    def make(body):
        @wraps(body)
        def check(cfg: VerifyConfig, ctx=None) -> CheckResult:
            try:
                return CheckResult(name, *body(cfg, ctx))
            except IterationCeilingError as exc:
                return CheckResult(name, False, f"{exc.kind}: {exc}")
        return check
    return make


def _attempt(attempts: int, n: int) -> int:
    """attempts + 1: a search for n samples makes at most 50 * n + 200 draws."""
    if attempts >= 50 * n + 200:
        raise DomainError(f"sample space too small: {n} samples need over {attempts} draws")
    return attempts + 1


def _draw_distinct(rng: Lcg, bound: Ordinal, pool: int, n: int) -> list[Ordinal]:
    got: list[Ordinal] = []
    seen = set()
    attempts = 0
    while len(got) < n:
        attempts = _attempt(attempts, n)
        x = enum_below(bound, rng.below(pool))
        if x not in seen:
            seen.add(x)
            got.append(x)
    return got


# -- tower ---------------------------------------------------------------


@_check("tower-trichotomy-roundtrip")
def _check_trichotomy(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    top = add(parse_ordinal("w^2+w*5"), ordinal(1))
    rng = Lcg(cfg.seed)
    done = attempts = 0
    while done < 500:
        attempts = _attempt(attempts, 500)
        alpha = enum_below(top, rng.below(160))
        if alpha < ordinal(2):
            continue
        span = 80
        if alpha.is_natural():
            span = min(span, alpha.natural())
        x = tower.nth(alpha, rng.below(span))
        y = tower.nth(alpha, rng.below(span))
        if x == y:
            continue
        rx, ry = tower.rank(alpha, x), tower.rank(alpha, y)
        if (rx < ry) == (ry < rx):
            return False, f"rank tie at alpha={alpha}, x={x}, y={y}"
        if tower.nth(alpha, rx) != x or tower.nth(alpha, ry) != y:
            return False, f"roundtrip failed at alpha={alpha}, x={x}, y={y}"
        done += 1
    return True, "500 pairs below w^2+w*5 ordered and inverted exactly"


# canonical below w^3: w^e*c terms, ^e and *c left out when 1, then a natural;
# no leading zeros (terms out of order would parse to another ordinal)
_TERM = r"w(?:\^(?:[2-9]|[1-9][0-9]+))?(?:\*(?:[2-9]|[1-9][0-9]+))?"
_CANONICAL = rf"0|[1-9][0-9]*|{_TERM}(?:\+{_TERM})*(?:\+[1-9][0-9]*)?"


@_check("ordinal-literal-roundtrip")
def _check_literal_roundtrip(cfg: VerifyConfig, ctx=None) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 1)
    for _ in range(100):
        x = enum_below(CAP, rng.below(500))
        if not re.fullmatch(_CANONICAL, str(x)) or parse_ordinal(str(x)) != x:
            return False, f"{x!r} is not printed canonically"
    return True, "100 canonical literals round-tripped"


# -- family ---------------------------------------------------------------


def _closed_by_segments(a, tower: Tower) -> bool:
    # second route, for a in increasing order: closed when each a[:n] is an
    # initial segment of alpha = a[n] = lam+m's order, the tail lam+m-1, ...,
    # lam and then lam's order.  At a limit (m = 0) the n distinct ranks must
    # top out at n-1; if n <= m the n points are the top tail points; if n > m
    # a[n-m] is lam, whose own segment is judged at its index.  So each limit
    # in a is scanned once, and every other point by arithmetic.
    if a:
        tower._check(a[-1])
    for n, alpha in enumerate(a):
        lam, m = alpha.split()
        if m:
            ok = a[0] == lam.plus(m - n) if n <= m else a[n - m] == lam
        else:
            ok = not n or max(map(tower._order_at(alpha)._rank, a[:n])) == n - 1
        if not ok:
            return False
    return True


@_check("closure-extend-sound")
def _check_extend_sound(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 2)
    for _ in range(300):
        size = 1 + rng.below(6)
        a = oset(enum_below(cfg.bound, rng.below(16)) for _ in range(size))
        ext = cofinal_extend(a, tower)
        if not set(ext).issuperset(a):
            return False, f"extension dropped points of {list(a)}"
        if not _closed_by_segments(ext, tower):
            return False, f"extension of {list(a)} is not closed"
    return True, "300 seeded sets extend to checked closed supersets"


@_check("closure-close-sound")
def _check_close_sound(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 3)
    done = attempts = 0
    while done < 300:
        attempts = _attempt(attempts, 300)
        alpha = enum_below(cfg.bound, rng.below(24))
        if alpha.is_zero():
            continue
        size = 1 + rng.below(5)
        a = oset(enum_below(alpha, rng.below(16)) for _ in range(size))
        full = oset([*tower.close(alpha, a), alpha])
        if not _closed_by_segments(full, tower):
            return False, f"close({alpha}, {list(a)}) with apex fails the check"
        done += 1
    return True, "300 seeded closures stay closed with their apex"


@_check("ladder-biconditional")
def _check_ladder(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    pts, sets = ladder(20, cfg.bound, tower)
    used = set()  # each rung is the least natural that no earlier set covers
    for i in range(20):
        if pts[i] != next(x for x in map(ordinal, count()) if x not in used):
            return False, f"rung {i} at {pts[i]} is not the least free point"
        used.update(sets[i])
        for j in range(20):
            if (pts[i] in sets[j]) != (i <= j):
                return False, f"membership broke at i={i}, j={j}"
    return True, "20-rung ladder matches the index law on 400 pairs"


@_check("closed-alltriples-oracle")
def _check_closed_oracle(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 4)
    for _ in range(500):
        size = 1 + rng.below(6)
        a = oset(enum_below(cfg.bound, rng.below(16)) for _ in range(size))
        if is_closed(a, tower) != _closed_by_segments(a, tower):
            return False, f"routes disagree on {list(map(str, a))}"
    return True, "500 sets judged identically by both closure routes"


# -- vc -------------------------------------------------------------------


@_check("cond4-triples")
def _check_cond4(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 5)
    for _ in range(300):
        triple = _draw_distinct(rng, cfg.bound, 24, 3)
        if not cond4_check(triple, tower):
            return False, f"no arrangement works for {list(map(str, triple))}"
    return True, "300 seeded triples admit an ordered arrangement"


def _mixed_ground(pts, k: int):
    # 2k ground points: the k least naturals and the k least infinite points
    pts = sorted(pts, key=ORD_KEY)
    nats = [x for x in pts if x.is_natural()]
    lims = [x for x in pts if not x.is_natural()]
    ground = nats[:k] + lims[:k]
    return ground + (nats[k:] + lims[k:])[:2 * k - len(ground)]  # top up if either side ran short


@_check("window-vc-dim")
def _check_window_vc(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    window = enumerate_family(cfg.bound, 30, cfg.seed, tower)
    ground = _mixed_ground({x for mem in window.members for x in mem}, 6)
    sys_ = SetSystemWindow.from_window(window, ground)
    triple = hunt_shattered(sys_, 3)
    if triple is not None:
        return False, f"shattered 3-set {list(map(str, triple))} found"
    pair = hunt_shattered(sys_, 2)
    if pair is None:
        return False, "no shattered pair found"
    d = vc_dim(sys_)
    if d != 2:
        return False, f"exact dimension {d} != 2"
    return True, "12-point window trace: no 3-set, a pair, dimension exactly 2"


@_check("sauer-windows")
def _check_sauer(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    # 12 members on a 4-point ground: the dimension-2 bound is 1+4+6 = 11, so a
    # window that shatters a triple there fails.  A point in every member
    # tells no two apart, so the ground is drawn from the other points.
    for s in range(50):
        window = enumerate_family(cfg.bound, 12, cfg.seed + s, tower)
        members = list(map(set, window.members))
        ground = _mixed_ground(set.union(*members) - set.intersection(*members), 2)
        sys_ = SetSystemWindow.from_window(window, ground)
        if not sauer_check(sys_, 2):
            return False, f"trace count exceeds the bound at seed {cfg.seed + s}"
    return True, "50 seeded windows within the dimension-2 trace bound"


@_check("section-size-identity")
def _check_section(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 6)
    done = attempts = 0
    while done < 100:
        attempts = _attempt(attempts, 100)
        alpha = enum_below(cfg.bound, rng.below(200))
        if alpha.is_zero():
            continue
        r = rng.below(40)
        try:
            beta = tower.nth(alpha, r)
        except DomainError:
            continue
        want = tower.rank(alpha, beta)
        section = [tower.nth(alpha, j) for j in range(want)]
        if len(set(section)) != want:
            return False, f"enumeration repeats below {beta} at {alpha}"
        if not all(tower.turnstile(alpha, beta, g) for g in section):
            return False, f"section member fails the relation at ({beta}, {alpha})"
        probes = [beta]
        try:
            probes.append(tower.nth(alpha, want + 1 + rng.below(8)))
        except DomainError:
            pass
        for probe in probes:
            if tower.turnstile(alpha, beta, probe):
                return False, f"point {probe} outside the section satisfies the relation"
        done += 1
    return True, "100 sections enumerate to exactly their rank size"


def _brute_trace(members: list[frozenset], a: frozenset):
    return {m & a for m in members}


@_check("trace-brute-oracle")
def _check_trace_oracle(cfg: VerifyConfig, tower: Tower) -> tuple[bool, str]:
    rng = Lcg(cfg.seed + 7)
    for _ in range(100):
        n = 1 + rng.below(10)
        ground = list(range(n))
        members = [rng.below(1 << n) for _ in range(1 + rng.below(12))]
        sys_ = SetSystemWindow(ground, members)
        plain = [frozenset(p for p in ground if m >> p & 1) for m in members]
        for _ in range(4):
            amask = rng.below(1 << n)
            a = [p for p in ground if amask >> p & 1]
            got = {frozenset(q.natural() for q in t) for t in trace(sys_, a)}
            want = _brute_trace(plain, frozenset(a))
            if got != want:
                return False, f"trace mismatch on ground {n}, subset {a}"
            if is_shattered(sys_, a) != (len(want) == 1 << len(a)):
                return False, f"shattering mismatch on ground {n}, subset {a}"
    return True, "100 random systems match the direct set enumerator"


# -- aa -------------------------------------------------------------------


@_check("aa-order-type")
def _check_order_type(cfg: VerifyConfig, ctx: AAOrders) -> tuple[bool, str]:
    for s in ("w", "w+3", "w*2", "w^2"):
        alpha = parse_ordinal(s)
        order = ctx.order(alpha)
        pref = order.prefix(50)
        if len(set(pref)) != 50 or any(not x < alpha for x in pref):
            return False, f"prefix of {s} is not 50 distinct points below it"
        if [order.rank(x) for x in pref] != list(range(50)):
            return False, f"prefix ranks of {s} not consecutive"
        rng = Lcg(cfg.seed + 8)
        for _ in range(200):
            x = enum_below(alpha, rng.below(200))
            if ctx.nth(alpha, ctx.rank(alpha, x)) != x:
                return False, f"roundtrip failed at {s} on {x}"
    return True, "4 orders prefix-complete to 50 and inverted on 200 points"


@_check("aa-almost-agree")
def _check_almost_agree(cfg: VerifyConfig, ctx: AAOrders) -> tuple[bool, str]:
    top = parse_ordinal("w^2*2")
    rng = Lcg(cfg.seed + 9)
    pairs = []
    attempts = 0
    while len(pairs) < 100:
        attempts = _attempt(attempts, 100)
        a = enum_below(top, rng.below(160))
        b = enum_below(top, rng.below(160))
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        if lo < W:
            lo = W
            if not lo < hi:
                continue
        pairs.append((lo, hi))
    biggest = 0
    for k, (lo, hi) in enumerate(pairs):
        cert = ctx.exception_set(lo, hi)
        biggest = max(biggest, len(cert.points))
        got = ctx.verify_exception(cert, 200, cfg.seed + 10 + k)
        if not got.ok:
            w0, w1 = got.witness
            return False, f"orders at {lo} and {hi} disagree on ({w0}, {w1})"
    return True, f"100 certificates verified; max certificate size {biggest}"


@_check("adjust-unit-law")
def _check_adjust_unit(cfg: VerifyConfig, ctx: AAOrders) -> tuple[bool, str]:
    outer = ctx.order(parse_ordinal("w*2"))
    empty = ExceptionCert(lower=W, upper=parse_ordinal("w*2"), points=())
    same = adjust_one(ctx.order(W), outer, empty)
    for k in range(100):
        if same.nth(k) != outer.nth(k):
            return False, f"empty certificate changed rank {k}"
    inner = ListOrder([1, 0])
    out3 = ListOrder([0, 1, 2])
    adjusted = adjust_one(inner, out3, [ordinal(0)])
    got = [adjusted.nth(i) for i in range(3)]
    if got != [ordinal(1), ordinal(0), ordinal(2)]:
        return False, f"hand example produced {list(map(str, got))}"
    return True, "empty certificate is identity; hand example reproduced"


# suite -> its checks, in output order; "aa" runs on an AAOrders, the others on a Tower
SUITES = {
    "tower": (_check_trichotomy, _check_literal_roundtrip),
    "family": (_check_extend_sound, _check_close_sound, _check_ladder, _check_closed_oracle),
    "vc": (_check_cond4, _check_window_vc, _check_sauer, _check_section, _check_trace_oracle),
    "aa": (_check_order_type, _check_almost_agree, _check_adjust_unit),
}


def run_suites(names, cfg: VerifyConfig | None = None) -> list[CheckResult]:
    """Run the named suites; "aa" gets an AAOrders, the others share a Tower.

    Each check is called by its module-level name, so a wrapper bound to
    that name (a tracer's timer, say) sees every call."""
    cfg = cfg or VerifyConfig()
    names = list(names)
    tower = Tower() if set(names) - {"aa"} else None
    ctx = AAOrders() if "aa" in names else None
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}")
        results.extend(globals()[check.__name__](cfg, ctx if name == "aa" else tower)
                       for check in SUITES[name])
    return results
