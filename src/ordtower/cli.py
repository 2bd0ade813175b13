"""Command-line front end.

Subcommands expose the ordinal arithmetic, the tower queries, the closed
family, the VC analytics, the almost-agreeing omega-orders, and the
seeded verification suites.  Output is deterministic for a fixed argv;
domain failures exit 1 with a one-line ``error: <kind>: <detail>``,
usage problems exit 2.

A command is one row of ``_COMMANDS``: its handler, its positionals and the
options it reads.  A handler only computes: it returns its text lines, its
JSON payload and, when it can fail without raising, its exit code.  ``run``
does all output.
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


def _strs(xs):
    return None if xs is None else [str(x) for x in xs]


def _window(args) -> FamilyWindow:
    if args.window is not None:
        try:
            with open(args.window, "r", encoding="utf-8") as fh:
                return FamilyWindow.from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read window file {args.window}: {exc}") from exc
    return enumerate_family(parse_ordinal(args.bound), args.count, args.seed, Tower())


def _ord_cmp(args):
    word = {-1: "LT", 0: "EQ", 1: "GT"}[compare(parse_ordinal(args.a), parse_ordinal(args.b))]
    return [word], {"cmp": word}


def _ord_add(args):
    s = str(parse_ordinal(args.a) + parse_ordinal(args.b))
    return [s], {"sum": s}


def _ord_fund(args):
    v = str(fund_seq(parse_ordinal(args.a), args.n))
    return [v], {"value": v}


def _ord_enum(args):
    alpha = parse_ordinal(args.a)
    if args.count is None:
        v = str(enum_below(alpha, args.n))
        return [v], {"value": v}
    vals = _strs(enum_prefix(alpha, args.count))
    return vals, {"values": vals}


def _ord_parse(args):
    v = str(parse_ordinal(args.a))
    return [v], {"canonical": v}


def _tower_rank(args):
    r = Tower().rank(parse_ordinal(args.alpha), parse_ordinal(args.x))
    return [str(r)], {"rank": r}


def _tower_nth(args):
    v = str(Tower().nth(parse_ordinal(args.alpha), args.k))
    return [v], {"value": v}


def _tower_close(args):
    b = _strs(Tower().close(parse_ordinal(args.alpha), _parse_set(args.set)))
    return [",".join(b)], {"closed": b}


def _tower_turnstile(args):
    ok = Tower().turnstile(*map(parse_ordinal, (args.alpha, args.beta, args.gamma)))
    return ["true" if ok else "false"], {"holds": ok}


def _tower_blocks(args):
    b = _strs(Tower().blocks(parse_ordinal(args.alpha), args.k))
    return [",".join(b)], {"block": b}


def _family_extend(args):
    ext = _strs(cofinal_extend(_parse_set(args.set), Tower()))
    return [",".join(ext)], {"member": ext}


def _family_check(args):
    ok = is_closed(_parse_set(args.set), Tower())
    return ["CLOSED" if ok else "NOT_CLOSED"], {"closed": ok}


def _family_ladder(args):
    pts, sets = ladder(args.n, parse_ordinal(args.bound), Tower())
    pts, sets = _strs(pts), [_strs(s) for s in sets]
    lines = ["points: " + ",".join(pts), *(f"s{j}: " + ",".join(s) for j, s in enumerate(sets))]
    return lines, {"points": pts, "sets": sets}


def _family_window(args):
    window = _window(args)
    d = window.to_dict()
    lines = [f"bound: {window.bound}  seed: {window.seed}  members: {window.count}"]
    lines += [",".join(m) for m in d["members"]]
    return lines, d


def _family_entails(args):
    verdict, witness = entails(_parse_set(args.a), _parse_set(args.b), _window(args))
    w = _strs(witness)
    text = verdict.value if w is None else f"{verdict.value} witness {','.join(w)}"
    return [text], {"verdict": verdict.value, "witness": w}


def _vc_system(args) -> SetSystemWindow:
    ground = _parse_set(args.ground) if args.ground else None
    return SetSystemWindow.from_window(_window(args), ground)


def _vc_dim(args):
    d = vc_dim(_vc_system(args))
    return [str(d)], {"vc_dim": d}


def _vc_shatter(args):  # JSON only: the command has no --output
    return [], shatter_certificate(_vc_system(args), _parse_set(args.set))


def _vc_hunt(args):
    found = _strs(hunt_shattered(_vc_system(args), args.k))
    return ["NONE" if found is None else ",".join(found)], {"found": found}


def _vc_sauer(args):
    ok = sauer_check(_vc_system(args), args.d)
    return ["OK" if ok else "VIOLATION"], {"within_bound": ok}


def _vc_cond4(args):
    ok = cond4_check(_parse_set(args.set), Tower())
    return ["true" if ok else "false"], {"holds": ok}


def _vc_rmk(args):
    pts = [parse_ordinal(p) for p in args.points.split(",")]
    res = rmk_eval(args.m, args.k, pts, _window(args))
    return [res.value.value], {
        "value": res.value.value,
        "window_relative": res.window_relative,
        "exists_witness": _strs(res.exists_witness),
        "universal_counterexample": _strs(res.universal_counterexample),
    }


def _aa_rank(args):
    r = AAOrders().rank(parse_ordinal(args.alpha), parse_ordinal(args.x))
    return [str(r)], {"rank": r}


def _aa_nth(args):
    v = str(AAOrders().nth(parse_ordinal(args.alpha), args.k))
    return [v], {"value": v}


def _aa_exceptions(args):
    cert = AAOrders().exception_set(parse_ordinal(args.beta), parse_ordinal(args.a))
    d = cert.to_dict()
    lines = [f"{len(cert.points)} exception points"]
    if cert.points:
        lines.append(",".join(d["points"]))
    return lines, d


def _aa_verify(args):
    orders = AAOrders()
    cert = orders.exception_set(parse_ordinal(args.beta), parse_ordinal(args.a))
    res = orders.verify_exception(cert, args.count, args.seed)
    if res.ok:
        return ([f"OK {args.count} samples agree off {len(cert.points)} exception points"],
                {"ok": True, "samples": args.count, "exceptions": len(cert.points)}, 0)
    x, y = res.witness
    return [f"DISAGREE on ({x}, {y})"], {"ok": False, "witness": [str(x), str(y)]}, 1


def _verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = VerifyConfig(seed=args.seed, bound=parse_ordinal(args.bound))
    results = run_suites(names, cfg)
    return ([r.line() for r in results], {"results": [r._asdict() for r in results]},
            0 if all(r.passed for r in results) else 1)


# Each command's handler, its positionals, as (name, add_argument keywords),
# and the options it reads, with their defaults.  Options sit on the leaves,
# not on the groups: a group's values would be overwritten by the leaf's
# defaults.
_OPTIONS = {
    "seed": {"type": int, "help": "seed for all sampling"},
    "bound": {"help": "family bound"},
    "count": {"type": int, "help": "values to list, window members or samples"},
    "window": {"metavar": "FILE", "help": "JSON family window to read instead of generating one"},
    "output": {"choices": ["text", "json"], "help": "output format"},
}
_OUT = {"output": "text"}
_WINDOW_SOURCE = {"bound": "w^2", "count": 30, "seed": 1, "window": None}
_WINDOW = {**_WINDOW_SOURCE, "output": "text"}
_ALPHA = ("--alpha", {"required": True})
_GROUND = ("ground", {"nargs": "?"})

_COMMANDS = {
    ("ord", "cmp"): (_ord_cmp, [("a", {}), ("b", {})], _OUT),
    ("ord", "add"): (_ord_add, [("a", {}), ("b", {})], _OUT),
    ("ord", "fund"): (_ord_fund, [("a", {}), ("n", {"type": int})], _OUT),
    ("ord", "enum"): (_ord_enum, [("a", {}), ("n", {"type": int, "nargs": "?", "default": 0})],
                      {"count": None, "output": "text"}),
    ("ord", "parse"): (_ord_parse, [("a", {})], _OUT),
    ("tower", "rank"): (_tower_rank, [_ALPHA, ("x", {})], _OUT),
    ("tower", "nth"): (_tower_nth, [_ALPHA, ("k", {"type": int})], _OUT),
    ("tower", "close"): (_tower_close, [_ALPHA, ("set", {})], _OUT),
    ("tower", "turnstile"): (_tower_turnstile, [_ALPHA, ("beta", {}), ("gamma", {})], _OUT),
    ("tower", "blocks"): (_tower_blocks, [_ALPHA, ("k", {"type": int})], _OUT),
    ("family", "extend"): (_family_extend, [("set", {})], _OUT),
    ("family", "check"): (_family_check, [("set", {})], _OUT),
    ("family", "ladder"): (_family_ladder, [("n", {"type": int})], {**_OUT, "bound": "w^2"}),
    ("family", "window"): (_family_window, [], _WINDOW),
    ("family", "entails"): (_family_entails, [("a", {}), ("b", {})], _WINDOW),
    ("vc", "dim"): (_vc_dim, [_GROUND], _WINDOW),
    ("vc", "shatter"): (_vc_shatter, [("set", {}), _GROUND], _WINDOW_SOURCE),
    ("vc", "hunt"): (_vc_hunt, [("k", {"type": int}), _GROUND], _WINDOW),
    ("vc", "sauer"): (_vc_sauer, [("d", {"type": int}), _GROUND], _WINDOW),
    ("vc", "cond4"): (_vc_cond4, [("set", {})], _OUT),
    ("vc", "rmk"): (_vc_rmk, [("m", {"type": int}), ("k", {"type": int}), ("points", {})],
                    _WINDOW),
    ("aa", "rank"): (_aa_rank, [_ALPHA, ("x", {})], _OUT),
    ("aa", "nth"): (_aa_nth, [_ALPHA, ("k", {"type": int})], _OUT),
    ("aa", "exceptions"): (_aa_exceptions, [("beta", {}), ("a", {})], _OUT),
    ("aa", "verify"): (_aa_verify, [("beta", {}), ("a", {})],
                       {"count": 200, "seed": 1, "output": "text"}),
    ("verify",): (_verify, [("suite", {"choices": ["all", *SUITES]})],
                  {"seed": 1, "bound": "w^2", "output": "text"}),
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
def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argparse tree: every group, with the leaves of the group ``only``
    when it is given, else of all (top-level help and usage errors)."""
    p = argparse.ArgumentParser(prog="ordtower",
                                description="well-orders, closures and omega-orders on small ordinals")
    groups = p.add_subparsers(dest="group", required=True)
    ops = {}
    leaf = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    for (group, *op), (handler, positionals, options) in _COMMANDS.items():
        if only not in (None, group):
            if group not in ops:  # for its line in the top-level help
                ops[group] = groups.add_parser(group, help=_GROUPS[group])
            continue
        if op and group not in ops:
            g = groups.add_parser(group, help=_GROUPS[group])
            ops[group] = g.add_subparsers(dest="op", required=True)
        q = (ops[group].add_parser(*op, **leaf) if op
             else groups.add_parser(group, help=_GROUPS[group], **leaf))
        q.set_defaults(handler=handler)
        for name, kw in positionals:
            q.add_argument(name, **kw)
        for name, default in options.items():
            q.add_argument("--" + name, default=default, **_OPTIONS[name])
    return p


def run(argv: list[str]) -> int:
    """Run one command, print its answer and return its exit code; usage
    errors and ``--help`` raise SystemExit (2 and 0).

    The argparse tree holds the leaves of argv's group only, or of every
    group when argv does not start with one, so a single command builds no
    leaf it cannot reach.  Each tree is built on first use and reused by
    every later call in the process; it holds no answers or per-call state,
    and each call gets a fresh namespace and fresh contexts.  No package
    code uses threads, so sharing it needs no lock.
    """
    args = _build_parser(argv[0] if argv and argv[0] in _GROUPS else None).parse_args(argv)
    try:
        lines, payload, *code = args.handler(args)
    except OrdTowerError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # blocks nest once per limit; Python's text moves with call depth
        print("error: ceiling: limit orders nested too deeply", file=sys.stderr)
        return 1
    if getattr(args, "output", "json") == "json":  # vc shatter prints only JSON
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code[0] if code else 0


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
