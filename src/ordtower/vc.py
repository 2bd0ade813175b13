"""Finite set-system analytics over windowed families.

Traces, shattering, exact VC dimension and Sauer-Shelah counting on
explicit finite systems, plus the order-derived probes: the ternary
relation comparing rank positions, the 3-set arrangement check, and the
windowed pattern relations R_{m,k}.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from enum import Enum
from itertools import combinations, permutations
from math import comb

from .errors import DomainError, GuardExceededError
from .family import FamilyWindow
from .ordinals import ORD_KEY, Ordinal, _as_ord, oset
from .tower import Tower

EXACT_LIMIT = 16
RMK_MAX_K = 3  # rmk_eval patterns span at most this many points after the first


class SetSystemWindow:
    """A finite ground of sorted ordinals with member sets stored as bitmasks."""

    def __init__(self, ground: Sequence, sets: Sequence):
        self.ground: tuple[Ordinal, ...] = tuple(sorted(map(_as_ord, ground), key=ORD_KEY))
        if len(set(self.ground)) != len(self.ground):
            raise DomainError("ground has duplicate points")
        self._index: dict[Ordinal, int] = {p: i for i, p in enumerate(self.ground)}
        masks = []
        for s in sets:
            if isinstance(s, int):
                if not 0 <= s < (1 << len(self.ground)):
                    raise DomainError(f"bitmask {s} does not fit the ground")
                masks.append(s)
            else:
                masks.append(self.subset_mask(s))
        self.masks: tuple[int, ...] = tuple(masks)

    @staticmethod
    def from_window(window: FamilyWindow, ground: Sequence | None = None) -> "SetSystemWindow":
        """Trace a family window onto a ground set (default: all points
        appearing in members)."""
        if ground is None:
            ground = set().union(*window.members)
        ground = sorted(map(_as_ord, ground), key=ORD_KEY)
        bit = {p: 1 << i for i, p in enumerate(ground)}
        masks = [sum(bit[p] for p in bit.keys() & mem) for mem in window.members]
        return SetSystemWindow(ground, masks)

    @property
    def n(self) -> int:
        return len(self.ground)

    def subset_mask(self, points) -> int:
        mask = 0
        for p in map(_as_ord, points):
            if p not in self._index:
                raise DomainError(f"{p} is not a ground point")
            mask |= 1 << self._index[p]
        return mask

    def mask_points(self, mask: int) -> tuple:
        return tuple(p for i, p in enumerate(self.ground) if mask >> i & 1)


def trace(sys_: SetSystemWindow, a) -> set[frozenset]:
    """The distinct intersections of the members with a."""
    amask = sys_.subset_mask(a)
    return {frozenset(sys_.mask_points(m & amask)) for m in sys_.masks}


def is_shattered(sys_: SetSystemWindow, a) -> bool:
    amask = sys_.subset_mask(a)
    return _shattered_mask(sys_.masks, amask, bin(amask).count("1"))


def _shattered_mask(masks: Sequence[int], amask: int, k: int) -> bool:
    return len({m & amask for m in masks}) == 1 << k


def _shattered_levels(sys_: SetSystemWindow) -> Iterator[list[int]]:
    """Level k: the masks of the shattered k-subsets, in lexicographic index
    order.  Subsets of shattered sets stay shattered, so each level only
    extends the previous one by indices past its highest."""
    masks, n = sys_.masks, sys_.n
    level, k = ([0] if masks else []), 0
    while level:
        yield level
        k += 1
        level = [ext for amask in level for i in range(amask.bit_length(), n)
                 if _shattered_mask(masks, ext := amask | 1 << i, k)]


def vc_dim(sys_: SetSystemWindow) -> int:
    """Largest size of a shattered subset, by exact level-wise search."""
    if sys_.n > EXACT_LIMIT:
        raise GuardExceededError(f"exact search limited to {EXACT_LIMIT} ground points")
    return max(sum(1 for _ in _shattered_levels(sys_)) - 1, 0)  # 0 with no members


def hunt_shattered(sys_: SetSystemWindow, k: int) -> tuple | None:
    """Search for a shattered k-subset.

    Up to EXACT_LIMIT ground points the search is exhaustive and returns
    the lexicographically first shattered k-subset, so None refutes
    existence; above that a greedy point-by-point extension runs and None
    is merely inconclusive (found sets are always certified).  Both end
    at any k: the levels run out, and the extension adds a point a step.
    """
    if k < 0:
        raise DomainError(f"set size must be >= 0, got {k}")
    if k == 0:
        return () if sys_.masks else None
    if sys_.n <= EXACT_LIMIT:
        for size, level in enumerate(_shattered_levels(sys_)):
            if size == k:
                return sys_.mask_points(level[0])
        return None
    amask, size = 0, 0
    while size < k:
        for i in range(sys_.n):
            if amask >> i & 1:
                continue
            ext = amask | 1 << i
            if _shattered_mask(sys_.masks, ext, size + 1):
                amask, size = ext, size + 1
                break
        else:
            return None
    return sys_.mask_points(amask)


def sauer_check(sys_: SetSystemWindow, d: int) -> bool:
    """Distinct full-ground traces within the binomial bound for dimension d."""
    if d < 0:
        raise DomainError(f"dimension must be >= 0, got {d}")
    traces = len(set(sys_.masks))
    return traces <= sum(comb(sys_.n, i) for i in range(d + 1))


def shatter_certificate(sys_: SetSystemWindow, a) -> dict:
    """JSON-ready witness map: every subset of a realized by some member."""
    amask = sys_.subset_mask(a)
    pts = sys_.mask_points(amask)
    bits = [1 << sys_._index[p] for p in pts]
    first: dict[int, int] = {}  # trace on a -> index of the first member cutting it
    for idx, m in enumerate(sys_.masks):
        first.setdefault(m & amask, idx)
    witnesses = {}
    for r in range(len(pts) + 1):
        for chosen in combinations(range(len(pts)), r):
            want = sum(bits[c] for c in chosen)
            if want not in first:
                missing = ",".join(str(pts[c]) for c in chosen)
                raise DomainError(f"{{{','.join(map(str, pts))}}} is not shattered: "
                                  f"subset {{{missing}}} unrealized")
            witnesses[str(sum(1 << c for c in chosen))] = first[want]
    return {"set": [str(p) for p in pts], "witnesses": witnesses}


def cond4_check(a, tower: Tower) -> bool:
    """Some arrangement (x; y, z) of a 3-set satisfies the ternary relation.

    For a < b < c only z = c can hold, and then exactly one of (a; b, c) and
    (b; a, c) does, so this tests only that c's order ranks a and b apart."""
    pts = oset(a)
    if len(pts) != 3:
        raise DomainError(f"arrangement check needs exactly 3 points, got {len(pts)}")
    return any(tower.turnstile(z, y, x) for x, y, z in permutations(pts))


class RmkValue(Enum):
    TRUE_IN_WINDOW = "TRUE_IN_WINDOW"
    FALSE_IN_WINDOW = "FALSE_IN_WINDOW"


class RmkResult(namedtuple("RmkResult", "value exists_witness universal_counterexample "
                                      "window_relative", defaults=(True,))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.value is RmkValue.TRUE_IN_WINDOW


def rmk_eval(m: int, k: int, points, window: FamilyWindow) -> RmkResult:
    """Evaluate the two-clause pattern relation over the window.

    Pattern: the first m of points[1:] lie in the member, the rest stay
    out.  Value: some member matches the pattern AND every matching
    member contains points[0].  Quantifiers range over the window only,
    so the result is window-relative (a positive exists-witness is sound
    for any larger family; the universal clause is not).
    """
    if not 0 <= m <= k <= RMK_MAX_K:
        raise DomainError(f"need 0 <= m <= k <= {RMK_MAX_K}, got m={m}, k={k}")
    pts = [_as_ord(p) for p in points]
    if len(pts) != k + 1:
        raise DomainError(f"pattern over m={m}, k={k} needs {k + 1} points, got {len(pts)}")

    inside, outside = set(pts[1:m + 1]), set(pts[m + 1:])
    witness = None
    counter = None
    for member in window.members:
        ms = set(member)
        if not inside <= ms or not outside.isdisjoint(ms):
            continue
        if witness is None:
            witness = member
        if pts[0] not in ms:
            counter = member
            break
    ok = witness is not None and counter is None
    return RmkResult(
        value=RmkValue.TRUE_IN_WINDOW if ok else RmkValue.FALSE_IN_WINDOW,
        exists_witness=witness,
        universal_counterexample=counter,
    )
