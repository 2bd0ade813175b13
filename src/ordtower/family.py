"""The cofinal family of finite turnstile-closed ordinal sets.

A finite set A is closed when for every alpha, beta in A with beta <
alpha, all predecessors of beta in alpha's well-order belong to A as
well.  The family of such sets is cofinal: ``cofinal_extend`` embeds any
finite set into a member.  ``enumerate_family`` cuts a deterministic
finite window out of the (infinite) family for the analytics layer.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple

from .errors import CapExceededError, DomainError, IterationCeilingError
from .ordinals import (
    CEILING,
    ONE,
    ZERO,
    Ordinal,
    enum_below,
    enum_prefix,
    ordinal,
    oset,
    parse_ordinal,
)
from .rng import Lcg
from .tower import CAP, OrdinalSet, Tower


def is_closed(a, tower: Tower) -> bool:
    """Decide membership in the family: every predecessor set stays inside a.

    For each alpha in a, the predecessor sets of the betas below it are
    prefixes of alpha's order, so their union is the prefix of the largest
    rank.  Each position of that prefix is therefore checked once, as the
    ranks climb: the ranks are asked for in the same order as a check per
    pair would, a missing point fails at the same beta, and every ``nth``
    lies below a rank already computed, so no order grows further.  A
    point above the tower's cap is refused even when no rank is asked.
    """
    a = oset(a)
    if a:
        tower._check(a[-1])
    members = set(a)
    for k, alpha in enumerate(a):
        seen = 0  # alpha's first `seen` positions are known to lie in a
        for beta in a[:k]:
            r = tower.rank(alpha, beta)
            while seen < r:
                if tower.nth(alpha, seen) not in members:
                    return False
                seen += 1
    return True


def cofinal_extend(a, tower: Tower) -> OrdinalSet:
    """Smallest-recursion closure of a: close(max(a)+1, a) plus the new top.
    So max(a) must lie below the cap."""
    a = oset(a)
    if a and not a[-1] < CAP:
        raise CapExceededError(f"the largest point {a[-1]} is not below the cap {CAP}")
    alpha = a[-1].succ() if a else ONE
    return tower.close(alpha, a) + (alpha,)  # alpha lies above the whole closure


def ladder(length: int, bound, tower: Tower) -> tuple[list[Ordinal], list[OrdinalSet]]:
    """Points x_i and members s_i with x_i in s_j exactly when i <= j.

    x_0 = 0, s_i = cofinal_extend({x_0..x_i}), and x_{i+1} is the least
    ordinal below bound not yet covered by any earlier s_j.
    """
    bound = tower._check(bound)
    if length < 0:
        raise DomainError(f"ladder length must be >= 0, got {length}")
    if length == 0:
        return [], []
    if not ZERO < bound:
        raise DomainError("ladder needs bound > 0")
    points = [ZERO]
    sets = [cofinal_extend(points, tower)]
    used = set(sets[0])  # cofinal_extend(points) contains points
    while len(points) < length:
        points.append(_least_unused(used, bound))
        s = cofinal_extend(points, tower)
        sets.append(s)
        used.update(s)
    return points, sets


def _least_unused(used, bound: Ordinal) -> Ordinal:
    # used is finite, so below an infinite bound some natural is always free
    k = 0
    while True:
        cand = ordinal(k)
        if not cand < bound:
            raise DomainError("bound exhausted before reaching ladder length")
        if cand not in used:
            return cand
        k += 1


class Entailment(enum.Enum):
    REFUTED = "REFUTED"
    NO_WITNESS_IN_WINDOW = "NO_WITNESS_IN_WINDOW"


def entails(a, b, window: "FamilyWindow") -> tuple[Entailment, OrdinalSet | None]:
    """Windowed refutation of "every member containing a meets b".

    REFUTED comes with a witness member and is sound for the full family;
    NO_WITNESS_IN_WINDOW is inconclusive (the window is finite).
    """
    sa, sb = set(oset(a)), set(oset(b))
    for member in window.members:
        d = set(member)
        if sa <= d and not (d & sb):
            return Entailment.REFUTED, member
    return Entailment.NO_WITNESS_IN_WINDOW, None


class FamilyWindow(namedtuple("FamilyWindow", "bound seed members")):
    """A finite, deterministically regenerable slice of the family: members
    (a tuple of ordinal sets) drawn below bound with the seed."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        # members share most of their points, so each is formatted once
        text = {x: str(x) for x in set().union(*self.members)}
        return {
            "bound": str(self.bound),
            "seed": self.seed,
            "members": [[text[x] for x in m] for m in self.members],
        }

    @staticmethod
    def from_dict(d: dict) -> "FamilyWindow":
        try:
            bound = parse_ordinal(d["bound"])
            seed, members = d["seed"], d["members"]
            if type(seed) is not int or not isinstance(members, list) \
                    or not all(isinstance(m, list) for m in members):
                raise DomainError("malformed family window: the seed must be an integer "
                                  "and the members lists of literals")
            members = tuple(oset(parse_ordinal(x) for x in m) for m in members)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed family window: {exc}") from exc
        return FamilyWindow(bound=bound, seed=seed, members=members)

    @staticmethod
    def from_json(text: str) -> "FamilyWindow":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed family window JSON: {exc}") from exc
        return FamilyWindow.from_dict(d)


def enumerate_family(bound, count: int, seed: int, tower: Tower) -> FamilyWindow:
    """A window of `count` distinct members below bound.

    Construction blocks of the limits visible in bound's enumeration
    prefix come first (structurally interesting members), then closures
    of seeded random finite sets until the window is full.  Deterministic
    in (bound, count, seed); members are kept lexicographically sorted.
    """
    bound = tower._check(bound)
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    if count > 0 and not ZERO < bound:
        raise DomainError(f"family window needs bound > 0, got {bound}")
    members: list[OrdinalSet] = []
    seen = set()

    def push(m: OrdinalSet) -> bool:
        if m and m not in seen and len(members) < count:
            seen.add(m)
            members.append(m)
            return True
        return False

    limits = [bound] if bound.is_limit() else []
    for x in enum_prefix(bound, 40) if bound > 0 else []:
        if x.is_limit() and x not in limits:
            limits.append(x)
    for eta in oset(limits):
        for n in range(1, 5):
            push(tower.blocks(eta, n))

    rng = Lcg(seed)
    misses = 0  # draws in a row that added no member
    while len(members) < count:
        size = 1 + rng.below(4)
        a = [enum_below(bound, rng.below(200)) for _ in range(size)]
        misses = 0 if push(cofinal_extend(a, tower)) else misses + 1
        if misses == CEILING:  # so a window that cannot fill ends in bounded time
            raise IterationCeilingError(
                f"could not reach {count} distinct members below {bound}")
    return FamilyWindow(bound=bound, seed=seed, members=tuple(sorted(members)))
