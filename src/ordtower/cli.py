"""Command-line front end.

Subcommands expose the ordinal arithmetic, the tower queries, the closed
family, the VC analytics, the almost-agreeing omega-orders, and the
seeded verification suites.  Output is deterministic for a fixed argv;
domain failures exit 1 with a one-line ``error: <kind>: <detail>``,
usage problems exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import DomainError, OrdTowerError
from .family import (
    FamilyWindow,
    cofinal_extend,
    entails,
    enumerate_family,
    is_closed,
    ladder,
)
from .omega import AAOrders
from .ordinals import compare, enum_below, enum_prefix, fund_seq, oset, parse_ordinal
from .tower import Tower
from .vc import (
    SetSystemWindow,
    cond4_check,
    hunt_shattered,
    rmk_eval,
    sauer_check,
    shatter_certificate,
    vc_dim,
)
from .verify import SUITES, VerifyConfig, run_suites


def _parse_set(text: str):
    if not text.strip():
        return ()
    return oset(parse_ordinal(part) for part in text.split(","))


def _fmt_set(xs) -> str:
    return ",".join(str(x) for x in xs)


def _emit(args, text_line: str, payload: dict) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text_line)


def _tower(args) -> Tower:
    return Tower(cap=parse_ordinal(args.cap))


def _window(args) -> FamilyWindow:
    if args.window is not None:
        try:
            with open(args.window, "r", encoding="utf-8") as fh:
                return FamilyWindow.from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read window file {args.window}: {exc}") from exc
    return enumerate_family(parse_ordinal(args.bound), args.count, args.seed, _tower(args))


# -- ord -------------------------------------------------------------------


def _cmd_ord(args) -> int:
    if args.op == "cmp":
        c = compare(parse_ordinal(args.a), parse_ordinal(args.b))
        word = {-1: "LT", 0: "EQ", 1: "GT"}[c]
        _emit(args, word, {"cmp": word})
    elif args.op == "add":
        s = parse_ordinal(args.a) + parse_ordinal(args.b)
        _emit(args, str(s), {"sum": str(s)})
    elif args.op == "fund":
        v = fund_seq(parse_ordinal(args.a), args.n)
        _emit(args, str(v), {"value": str(v)})
    elif args.op == "enum":
        alpha = parse_ordinal(args.a)
        if args.count is not None:
            vals = enum_prefix(alpha, args.count)
            if args.output == "json":
                print(json.dumps({"values": [str(v) for v in vals]}, sort_keys=True))
            else:
                for v in vals:
                    print(v)
        else:
            v = enum_below(alpha, args.n)
            _emit(args, str(v), {"value": str(v)})
    else:  # parse
        v = parse_ordinal(args.a)
        _emit(args, str(v), {"canonical": str(v)})
    return 0


# -- tower -----------------------------------------------------------------


def _cmd_tower(args) -> int:
    alpha = parse_ordinal(args.alpha)
    t = _tower(args)
    if args.op == "rank":
        r = t.rank(alpha, parse_ordinal(args.x))
        _emit(args, str(r), {"rank": r})
    elif args.op == "nth":
        v = t.nth(alpha, args.k)
        _emit(args, str(v), {"value": str(v)})
    elif args.op == "close":
        b = t.close(alpha, _parse_set(args.set))
        _emit(args, _fmt_set(b), {"closed": [str(x) for x in b]})
    elif args.op == "turnstile":
        ok = t.turnstile(alpha, parse_ordinal(args.beta), parse_ordinal(args.gamma))
        _emit(args, "true" if ok else "false", {"holds": ok})
    else:  # blocks
        b = t.blocks(alpha, args.k)
        _emit(args, _fmt_set(b), {"block": [str(x) for x in b]})
    return 0


# -- family ----------------------------------------------------------------


def _cmd_family(args) -> int:
    if args.op == "extend":
        ext = cofinal_extend(_parse_set(args.set), _tower(args))
        _emit(args, _fmt_set(ext), {"member": [str(x) for x in ext]})
    elif args.op == "check":
        ok = is_closed(_parse_set(args.set), _tower(args))
        _emit(args, "CLOSED" if ok else "NOT_CLOSED", {"closed": ok})
    elif args.op == "ladder":
        pts, sets = ladder(args.n, parse_ordinal(args.bound), _tower(args))
        if args.output == "json":
            print(json.dumps({
                "points": [str(x) for x in pts],
                "sets": [[str(x) for x in s] for s in sets],
            }, sort_keys=True))
        else:
            print("points:", _fmt_set(pts))
            for j, s in enumerate(sets):
                print(f"s{j}:", _fmt_set(s))
    elif args.op == "window":
        window = _window(args)
        if args.output == "json":
            print(window.to_json())
        else:
            print(f"bound: {window.bound}  seed: {window.seed}  members: {window.count}")
            for m in window.members:
                print(_fmt_set(m))
    else:  # entails
        verdict, witness = entails(_parse_set(args.a), _parse_set(args.b), _window(args))
        if args.output == "json":
            print(json.dumps({
                "verdict": verdict.value,
                "witness": None if witness is None else [str(x) for x in witness],
            }, sort_keys=True))
        elif witness is None:
            print(verdict.value)
        else:
            print(f"{verdict.value} witness {_fmt_set(witness)}")
    return 0


# -- vc --------------------------------------------------------------------


def _vc_system(args) -> SetSystemWindow:
    ground = _parse_set(args.ground) if args.ground else None
    return SetSystemWindow.from_window(_window(args), ground)


def _cmd_vc(args) -> int:
    if args.op == "dim":
        d = vc_dim(_vc_system(args))
        _emit(args, str(d), {"vc_dim": d})
    elif args.op == "shatter":
        cert = shatter_certificate(_vc_system(args), _parse_set(args.set))
        print(json.dumps(cert, sort_keys=True))
    elif args.op == "hunt":
        found = hunt_shattered(_vc_system(args), args.k)
        if args.output == "json":
            print(json.dumps(
                {"found": None if found is None else [str(x) for x in found]},
                sort_keys=True))
        else:
            print("NONE" if found is None else _fmt_set(found))
    elif args.op == "sauer":
        ok = sauer_check(_vc_system(args), args.d)
        _emit(args, "OK" if ok else "VIOLATION", {"within_bound": ok})
    elif args.op == "cond4":
        ok = cond4_check(_parse_set(args.set), _tower(args))
        _emit(args, "true" if ok else "false", {"holds": ok})
    else:  # rmk
        pts = [parse_ordinal(p) for p in args.points.split(",")]
        res = rmk_eval(args.m, args.k, pts, _window(args))
        payload = {
            "value": res.value.value,
            "window_relative": res.window_relative,
            "exists_witness": None if res.exists_witness is None
            else [str(x) for x in res.exists_witness],
            "universal_counterexample": None if res.universal_counterexample is None
            else [str(x) for x in res.universal_counterexample],
        }
        _emit(args, res.value.value, payload)
    return 0


# -- aa --------------------------------------------------------------------


def _cmd_aa(args) -> int:
    orders = AAOrders(cap=parse_ordinal(args.cap))
    if args.op == "rank":
        r = orders.rank(parse_ordinal(args.alpha), parse_ordinal(args.x))
        _emit(args, str(r), {"rank": r})
    elif args.op == "nth":
        v = orders.nth(parse_ordinal(args.alpha), args.k)
        _emit(args, str(v), {"value": str(v)})
    elif args.op == "exceptions":
        cert = orders.exception_set(parse_ordinal(args.beta), parse_ordinal(args.a))
        if args.output == "json":
            print(cert.to_json())
        else:
            print(f"{len(cert.points)} exception points")
            if cert.points:
                print(_fmt_set(cert.points))
    else:  # verify
        cert = orders.exception_set(parse_ordinal(args.beta), parse_ordinal(args.a))
        res = orders.verify_exception(cert, args.count, args.seed)
        if res.ok:
            _emit(args,
                  f"OK {args.count} samples agree off {len(cert.points)} exception points",
                  {"ok": True, "samples": args.count, "exceptions": len(cert.points)})
            return 0
        x, y = res.witness
        _emit(args, f"DISAGREE on ({x}, {y})",
              {"ok": False, "witness": [str(x), str(y)]})
        return 1
    return 0


# -- verify ----------------------------------------------------------------


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = VerifyConfig(seed=args.seed, bound=parse_ordinal(args.bound),
                       cap=parse_ordinal(args.cap))
    results = run_suites(names, cfg)
    if args.output == "json":
        print(json.dumps({"results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]}, sort_keys=True))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


# -- wiring ----------------------------------------------------------------


# Each command's positionals, as (name, add_argument keywords), and the
# options it reads, with their defaults.  Options sit on the leaves, not on
# the groups: a group's values would be overwritten by the leaf's defaults.
_OPTIONS = {
    "cap": {"help": "largest ordinal handled"},
    "seed": {"type": int, "help": "seed for all sampling"},
    "bound": {"help": "family bound"},
    "count": {"type": int, "help": "values to list, window members or samples"},
    "window": {"metavar": "FILE", "help": "JSON family window to read instead of generating one"},
    "output": {"choices": ["text", "json"], "help": "output format"},
}
_OUT = {"output": "text"}
_CAP = {"cap": "w^3", "output": "text"}
_WINDOW_SOURCE = {"cap": "w^3", "bound": "w^2", "count": 30, "seed": 1, "window": None}
_WINDOW = {**_WINDOW_SOURCE, "output": "text"}
_ALPHA = ("--alpha", {"required": True})
_GROUND = ("ground", {"nargs": "?"})

_COMMANDS = {
    ("ord", "cmp"): ([("a", {}), ("b", {})], _OUT),
    ("ord", "add"): ([("a", {}), ("b", {})], _OUT),
    ("ord", "fund"): ([("a", {}), ("n", {"type": int})], _OUT),
    ("ord", "enum"): ([("a", {}), ("n", {"type": int, "nargs": "?", "default": 0})],
                      {"count": None, "output": "text"}),
    ("ord", "parse"): ([("a", {})], _OUT),
    ("tower", "rank"): ([_ALPHA, ("x", {})], _CAP),
    ("tower", "nth"): ([_ALPHA, ("k", {"type": int})], _CAP),
    ("tower", "close"): ([_ALPHA, ("set", {})], _CAP),
    ("tower", "turnstile"): ([_ALPHA, ("beta", {}), ("gamma", {})], _CAP),
    ("tower", "blocks"): ([_ALPHA, ("k", {"type": int})], _CAP),
    ("family", "extend"): ([("set", {})], _CAP),
    ("family", "check"): ([("set", {})], _CAP),
    ("family", "ladder"): ([("n", {"type": int})], {**_CAP, "bound": "w^2"}),
    ("family", "window"): ([], _WINDOW),
    ("family", "entails"): ([("a", {}), ("b", {})], _WINDOW),
    ("vc", "dim"): ([_GROUND], _WINDOW),
    ("vc", "shatter"): ([("set", {}), _GROUND], _WINDOW_SOURCE),
    ("vc", "hunt"): ([("k", {"type": int}), _GROUND], _WINDOW),
    ("vc", "sauer"): ([("d", {"type": int}), _GROUND], _WINDOW),
    ("vc", "cond4"): ([("set", {})], _CAP),
    ("vc", "rmk"): ([("m", {"type": int}), ("k", {"type": int}), ("points", {})], _WINDOW),
    ("aa", "rank"): ([_ALPHA, ("x", {})], _CAP),
    ("aa", "nth"): ([_ALPHA, ("k", {"type": int})], _CAP),
    ("aa", "exceptions"): ([("beta", {}), ("a", {})], _CAP),
    ("aa", "verify"): ([("beta", {}), ("a", {})],
                       {"cap": "w^3", "count": 200, "seed": 1, "output": "text"}),
    ("verify",): ([("suite", {"choices": ["all", *SUITES]})],
                  {"cap": "w^3", "seed": 1, "bound": "w^2", "output": "text"}),
}
_GROUPS = {
    "ord": "ordinal arithmetic",
    "tower": "tower well-orders",
    "family": "the closed cofinal family",
    "vc": "trace and shattering analytics",
    "aa": "almost-agreeing omega-orders",
    "verify": "seeded verification suites",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ordtower",
                                description="well-orders, closures and omega-orders on small ordinals")
    groups = p.add_subparsers(dest="group", required=True)
    ops = {}
    leaf = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    for (group, *op), (positionals, options) in _COMMANDS.items():
        if op and group not in ops:
            g = groups.add_parser(group, help=_GROUPS[group])
            ops[group] = g.add_subparsers(dest="op", required=True)
        q = (ops[group].add_parser(*op, **leaf) if op
             else groups.add_parser(group, help=_GROUPS[group], **leaf))
        for name, kw in positionals:
            q.add_argument(name, **kw)
        for name, default in options.items():
            q.add_argument("--" + name, default=default, **_OPTIONS[name])
    return p


_HANDLERS = {
    "ord": _cmd_ord,
    "tower": _cmd_tower,
    "family": _cmd_family,
    "vc": _cmd_vc,
    "aa": _cmd_aa,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Run one command and return its exit code; usage errors and ``--help``
    raise SystemExit (2 and 0).

    The argparse tree is built on the first call and reused by every later
    call in the process; it holds no answers or per-call state, and each call
    gets a fresh namespace and fresh contexts.  No package code uses threads,
    so sharing it needs no lock.
    Reuse only saves in-process callers: a ``python -m ordtower`` process
    builds the parser once either way, so shell start-up does not change.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.group](args)
    except OrdTowerError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:  # a limit's blocks nest once per limit below it
        print(f"error: ceiling: limit orders nested too deeply ({exc})", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at interpreter exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
