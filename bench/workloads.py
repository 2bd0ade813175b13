"""Inputs and requests of the three benchmark workloads.

closure-warm and cli-cold serve a fixed list of requests in passes: each
pass is every request once, in an order drawn from the workload seed
with the standard library's ``random.Random``.  The package only ever
receives the generated values (ordinal literals, sets, argv lists).
Each request returns an opaque, deterministic *output key* that the
runner compares with the references in ``refs/``, which cover every
request, so any seed can be checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import traceback

# -- verify-all ---------------------------------------------------------------

# The ROADMAP's reference invocation.  Its verify seed stays fixed: the cost
# of `verify all` swings from 23 s to over 80 s with the verify seed (see
# README.md), so a workload seed cannot pick it without drowning every
# comparison in input noise.
VERIFY_ARGV = ["verify", "all", "--seed", "1"]

# -- closure-warm -------------------------------------------------------------

# enum_below(w^2, i) for i in 0..15, the point pool of the verify closure
# checks; capture.py asserts the equality at capture time.
CLOSURE_POOL = ["0", "1", "w", "2", "w+1", "w*2", "3", "w+2", "w*2+1",
                "w*3", "4", "w+3", "w*2+2", "w*3+1", "w*4", "5"]


def _closure_deck():
    """The sets closure-warm serves, as bitmasks over CLOSURE_POOL.

    Drawn once, from a fixed generator, with the distribution of the
    verify closure checks: 1 + below(6) draws from below(16), duplicates
    merged.  Fixed so that every run measures the same mix: a set's cost
    spans four orders of magnitude, and a freshly drawn stream would need
    thousands of sets per run to average that out.
    """
    rng = random.Random(0)
    deck = []
    for _ in range(200):
        mask = 0
        for _ in range(1 + rng.randrange(6)):
            mask |= 1 << rng.randrange(16)
        deck.append(mask)
    return deck


CLOSURE_DECK = _closure_deck()


class ClosureClient:
    """One long-lived Tower serving closure requests."""

    def __init__(self, ordtower):
        self.ot = ordtower
        self.pool = [ordtower.parse_ordinal(s) for s in CLOSURE_POOL]
        self.tower = ordtower.Tower()

    def request(self, mask: int) -> str:
        ot, tower = self.ot, self.tower
        pts = [p for i, p in enumerate(self.pool) if mask >> i & 1]
        ext = ot.cofinal_extend(pts, tower)
        closed = ot.is_closed(ext, tower)
        top = ext[-1]
        ranks = [tower.rank(top, x) for x in ext[:-1]]
        back = [tower.nth(top, r) for r in ranks]
        text = "{}|{}|{}|{}".format(
            ",".join(map(str, ext)), closed, ",".join(map(str, ranks)),
            back == list(ext[:-1]))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- cli-cold -----------------------------------------------------------------

_SETS = ["2", "0,2", "0,1,2,3", "w", "5,w+1", "w*2,3", "w,w+1,w*3", "1,w*4+2"]


# Eight variants per kind, one pass serving each once; see README.md for
# the requests left out and why.
CLI_CATALOG = {
    "ord cmp": [("0", "0"), ("5", "w*2"), ("w", "w"), ("w+1", "w*3+1"),
                ("w*2+5", "w^2+w*2+7"), ("w^2", "w^2*3+w+4"), ("w^2*2", "w^2*2"),
                ("w^2*3+w+4", "w+3")],
    "ord add": [("0", "w+3"), ("5", "5"), ("w", "w*2+5"), ("w+1", "w+1"),
                ("w*2", "w^2+1"), ("w*3+1", "w^2*2"), ("w^2", "w^2"),
                ("w^2*3+w+4", "w^2*3+w+4")],
    "ord fund": [("w", "3"), ("w*2", "17"), ("w*3", "0"), ("w*5", "3"),
                 ("w^2", "17"), ("w^2+w", "3"), ("w^2*2", "0"), ("w^2*3+w*2", "17")],
    "ord enum": [("5", "--count", "8"), ("w", "--count", "40"), ("w+3", "--count", "8"),
                 ("w*2+5", "--count", "40"), ("w^2", "--count", "40"),
                 ("w^2+1", "--count", "8"), ("w^2*2", "--count", "40"),
                 ("w^2*3+w+4", "--count", "8")],
    "tower rank": [("--alpha", a, x) for a, x in [
        ("9", "7"), ("w", "7"), ("w+3", "w"), ("w*2", "w+2"), ("w*3+2", "7"),
        ("w*4", "7"), ("w*5", "7"), ("w^2", "w+2")]],
    "tower nth": [("--alpha", a, k) for a, k in [
        ("9", "8"), ("w", "40"), ("w+3", "150"), ("w*2", "300"), ("w*3+2", "40"),
        ("w*4", "150"), ("w*5", "300"), ("w^2", "300")]],
    "tower close": [("--alpha", a, s) for a, s in [
        ("w", "0,5"), ("w+3", "w+1,7,3"), ("w*2", "2,w"), ("w*3+2", "w+1,7,3"),
        ("w*4", "0,5"), ("w*5", "w+1,7,3"), ("w*5", "0,5"), ("w^2", "2,w")]],
    "family extend": [(s,) for s in _SETS],
    "family check": [(s,) for s in _SETS],
    "family window": [("--bound", b, "--count", c, "--seed", s) for b, c, s in [
        ("w", "12", "1"), ("w", "60", "2"), ("w*3", "30", "3"), ("w*3", "60", "1"),
        ("w*6", "12", "2"), ("w*6", "30", "3"), ("w*6", "60", "1"), ("w*6", "60", "3")]],
    "vc dim": [("--bound", b, "--count", c, "--seed", s) for b, c, s in [
        ("w*3", "12", "1"), ("w*3", "12", "2"), ("w*3", "12", "3"), ("w", "12", "1"),
        ("w*3", "30", "2"), ("w*6", "12", "1"), ("w*6", "12", "2"), ("w*6", "12", "3")]],
    "vc hunt": [(k, "--bound", b, "--count", c, "--seed", s) for k, b, c, s in [
        ("2", "w", "12", "1"), ("3", "w", "30", "2"), ("2", "w*3", "12", "3"),
        ("3", "w*3", "30", "1"), ("2", "w*3", "30", "2"), ("3", "w*6", "12", "3"),
        ("2", "w*6", "30", "1"), ("3", "w*6", "30", "2")]],
    "vc sauer": [("2", "--bound", b, "--count", c, "--seed", s) for b, c, s in [
        ("w", "12", "1"), ("w", "30", "3"), ("w*3", "12", "2"), ("w*3", "30", "1"),
        ("w*3", "30", "3"), ("w*6", "12", "1"), ("w*6", "30", "2"), ("w*6", "30", "3")]],
    "aa exceptions": [("w", "w+2"), ("w", "w^2+w*3"), ("w+2", "w*5"), ("w*2", "w^2"),
                      ("w*3+1", "w^2+w+1"), ("w*5", "w^2"), ("w^2", "w^2+w*3"),
                      ("w^2+w+1", "w^2+w*3")],
    "aa verify": [(a, b, "--count", "100", "--seed", "3") for a, b in [
        ("w", "w+2"), ("w", "w*2"), ("w+2", "w*2"), ("w", "w*3+1"), ("w*2", "w*5"),
        ("w+2", "w*5"), ("w*2", "w^2"), ("w^2", "w^2*2")]],
    "aa nth": [("--alpha", a, k) for a, k in [
        ("w", "60"), ("w+2", "5"), ("w*2", "60"), ("w*3+1", "0"), ("w*5", "60"),
        ("w^2", "60"), ("w^2+w+1", "5"), ("w^2+w*3", "60")]],
}
CLI_REQUESTS = [kind.split() + list(args)
                for kind in sorted(CLI_CATALOG) for args in CLI_CATALOG[kind]]


def passes(items, seed: int):
    """Endless stream of passes; a pass is every item once, in an order
    drawn from the seed."""
    rng = random.Random(seed)
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield batch


def cli_key(argv) -> str:
    return " ".join(argv)


class CliClient:
    """Runs one CLI request in-process, as a shell user's command would."""

    def __init__(self, ordtower_cli):
        self.cli = ordtower_cli

    def request(self, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 -- a traceback is a failed request
                code = "traceback"
                err.write(traceback.format_exc())
        first_err = (err.getvalue().splitlines() or [""])[0]
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        return f"{code}\t{digest}\t{first_err}"


class VerifyClient:
    """The verify-all request; its key is the exit code and the full stdout."""

    def __init__(self, ordtower_cli):
        self.cli = ordtower_cli

    def request(self, argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.run(list(argv))
        return f"exit {code}\n{out.getvalue()}"
