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
from typing import List, Optional

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
from .ordinals import Ordinal, compare, enum_below, enum_prefix, fund_seq, oset, parse_ordinal
from .tower import Tower
from .vc import (
    SetSystemWindow,
    certificate_json,
    cond4_check,
    hunt_shattered,
    rmk_eval,
    sauer_check,
    shatter_certificate,
    vc_dim,
)
from .verify import SUITES, VerifyConfig, run_suites

DEFAULT_WINDOW_COUNT = 30


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


class _Ctx:
    """Lazily built shared state for one invocation."""

    def __init__(self, args):
        self.args = args
        self._tower: Optional[Tower] = None
        self._orders: Optional[AAOrders] = None

    @property
    def cap(self) -> Ordinal:
        return parse_ordinal(self.args.cap)

    @property
    def bound(self) -> Ordinal:
        return parse_ordinal(self.args.bound)

    @property
    def tower(self) -> Tower:
        if self._tower is None:
            self._tower = Tower(cap=self.cap)
        return self._tower

    @property
    def orders(self) -> AAOrders:
        if self._orders is None:
            self._orders = AAOrders(cap=self.cap)
        return self._orders

    def window(self) -> FamilyWindow:
        path = self.args.window
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    return FamilyWindow.from_json(fh.read())
            except OSError as exc:
                raise DomainError(f"cannot read window file {path}: {exc}") from exc
        count = self.args.count if self.args.count is not None else DEFAULT_WINDOW_COUNT
        return enumerate_family(self.bound, count, self.args.seed, self.tower)


# -- ord -------------------------------------------------------------------


def _cmd_ord(ctx: _Ctx, args) -> int:
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


def _cmd_tower(ctx: _Ctx, args) -> int:
    alpha = parse_ordinal(args.alpha)
    t = ctx.tower
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


def _cmd_family(ctx: _Ctx, args) -> int:
    t = ctx.tower
    if args.op == "extend":
        ext = cofinal_extend(_parse_set(args.set), t)
        _emit(args, _fmt_set(ext), {"member": [str(x) for x in ext]})
    elif args.op == "check":
        ok = is_closed(_parse_set(args.set), t)
        _emit(args, "CLOSED" if ok else "NOT_CLOSED", {"closed": ok})
    elif args.op == "ladder":
        pts, sets = ladder(args.n, ctx.bound, t)
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
        window = ctx.window()
        if args.output == "json":
            print(window.to_json())
        else:
            print(f"bound: {window.bound}  seed: {window.seed}  members: {window.count}")
            for m in window.members:
                print(_fmt_set(m))
    else:  # entails
        verdict, witness = entails(_parse_set(args.a), _parse_set(args.b), ctx.window())
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


def _vc_system(ctx: _Ctx, ground_text: Optional[str]) -> SetSystemWindow:
    ground = _parse_set(ground_text) if ground_text else None
    return SetSystemWindow.from_window(ctx.window(), ground)


def _cmd_vc(ctx: _Ctx, args) -> int:
    if args.op == "dim":
        d = vc_dim(_vc_system(ctx, args.ground))
        _emit(args, str(d), {"vc_dim": d})
    elif args.op == "shatter":
        cert = shatter_certificate(_vc_system(ctx, args.ground), _parse_set(args.set))
        print(certificate_json(cert))
    elif args.op == "hunt":
        found = hunt_shattered(_vc_system(ctx, args.ground), args.k)
        if args.output == "json":
            print(json.dumps(
                {"found": None if found is None else [str(x) for x in found]},
                sort_keys=True))
        else:
            print("NONE" if found is None else _fmt_set(found))
    elif args.op == "sauer":
        ok = sauer_check(_vc_system(ctx, args.ground), args.d)
        _emit(args, "OK" if ok else "VIOLATION", {"within_bound": ok})
    elif args.op == "cond4":
        ok = cond4_check(_parse_set(args.set), ctx.tower)
        _emit(args, "true" if ok else "false", {"holds": ok})
    else:  # rmk
        pts = [parse_ordinal(p) for p in args.points.split(",")]
        res = rmk_eval(args.m, args.k, pts, ctx.window())
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


def _cmd_aa(ctx: _Ctx, args) -> int:
    orders = ctx.orders
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
        beta, alpha = parse_ordinal(args.beta), parse_ordinal(args.a)
        cert = orders.exception_set(beta, alpha)
        samples = args.count if args.count is not None else 200
        res = orders.verify_exception(cert, samples, args.seed)
        if res.ok:
            _emit(args,
                  f"OK {samples} samples agree off {len(cert.points)} exception points",
                  {"ok": True, "samples": samples, "exceptions": len(cert.points)})
            return 0
        x, y = res.witness
        _emit(args, f"DISAGREE on ({x}, {y})",
              {"ok": False, "witness": [str(x), str(y)]})
        return 1
    return 0


# -- verify ----------------------------------------------------------------


def _cmd_verify(ctx: _Ctx, args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = VerifyConfig(seed=args.seed, bound=ctx.bound, cap=ctx.cap)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # the common options go on each leaf (and on ``verify``), not on the
    # groups: a group's values would be overwritten by the leaf's defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", default="w^3", help="largest ordinal handled (default w^3)")
    common.add_argument("--seed", type=int, default=1, help="seed for all sampling (default 1)")
    common.add_argument("--bound", default="w^2", help="family bound (default w^2)")
    common.add_argument("--count", type=int, default=None, help="sample/window size override")
    common.add_argument("--output", choices=["text", "json"], default="text")
    common.add_argument("--window", default=None, metavar="FILE",
                        help="JSON family window file (default: generate from bound/seed)")

    p = argparse.ArgumentParser(prog="ordtower",
                                description="well-orders, closures and omega-orders on small ordinals")
    sub = p.add_subparsers(dest="group", required=True)

    po = sub.add_parser("ord", help="ordinal arithmetic")
    so = po.add_subparsers(dest="op", required=True)
    q = so.add_parser("cmp", parents=[common]); q.add_argument("a"); q.add_argument("b")
    q = so.add_parser("add", parents=[common]); q.add_argument("a"); q.add_argument("b")
    q = so.add_parser("fund", parents=[common]); q.add_argument("a"); q.add_argument("n", type=int)
    q = so.add_parser("enum", parents=[common]); q.add_argument("a")
    q.add_argument("n", type=int, nargs="?", default=0)
    q = so.add_parser("parse", parents=[common]); q.add_argument("a")

    pt = sub.add_parser("tower", help="tower well-orders")
    st = pt.add_subparsers(dest="op", required=True)
    q = st.add_parser("rank", parents=[common]); q.add_argument("--alpha", required=True); q.add_argument("x")
    q = st.add_parser("nth", parents=[common]); q.add_argument("--alpha", required=True); q.add_argument("k", type=int)
    q = st.add_parser("close", parents=[common]); q.add_argument("--alpha", required=True); q.add_argument("set")
    q = st.add_parser("turnstile", parents=[common]); q.add_argument("--alpha", required=True)
    q.add_argument("beta"); q.add_argument("gamma")
    q = st.add_parser("blocks", parents=[common]); q.add_argument("--alpha", required=True); q.add_argument("k", type=int)

    pf = sub.add_parser("family", help="the closed cofinal family")
    sf = pf.add_subparsers(dest="op", required=True)
    q = sf.add_parser("extend", parents=[common]); q.add_argument("set")
    q = sf.add_parser("check", parents=[common]); q.add_argument("set")
    q = sf.add_parser("ladder", parents=[common]); q.add_argument("n", type=int)
    q = sf.add_parser("window", parents=[common])
    q = sf.add_parser("entails", parents=[common]); q.add_argument("a"); q.add_argument("b")

    pv = sub.add_parser("vc", help="trace and shattering analytics")
    sv = pv.add_subparsers(dest="op", required=True)
    q = sv.add_parser("dim", parents=[common]); q.add_argument("ground", nargs="?", default=None)
    q = sv.add_parser("shatter", parents=[common]); q.add_argument("set")
    q.add_argument("ground", nargs="?", default=None)
    q = sv.add_parser("hunt", parents=[common]); q.add_argument("k", type=int)
    q.add_argument("ground", nargs="?", default=None)
    q = sv.add_parser("sauer", parents=[common]); q.add_argument("d", type=int)
    q.add_argument("ground", nargs="?", default=None)
    q = sv.add_parser("cond4", parents=[common]); q.add_argument("set")
    q = sv.add_parser("rmk", parents=[common])
    q.add_argument("m", type=int); q.add_argument("k", type=int); q.add_argument("points")

    pa = sub.add_parser("aa", help="almost-agreeing omega-orders")
    sa = pa.add_subparsers(dest="op", required=True)
    q = sa.add_parser("rank", parents=[common]); q.add_argument("--alpha", required=True); q.add_argument("x")
    q = sa.add_parser("nth", parents=[common]); q.add_argument("--alpha", required=True); q.add_argument("k", type=int)
    q = sa.add_parser("exceptions", parents=[common]); q.add_argument("beta"); q.add_argument("a")
    q = sa.add_parser("verify", parents=[common]); q.add_argument("beta"); q.add_argument("a")

    pr = sub.add_parser("verify", help="seeded verification suites", parents=[common])
    pr.add_argument("suite", choices=["all"] + list(SUITES))

    return p


_HANDLERS = {
    "ord": _cmd_ord,
    "tower": _cmd_tower,
    "family": _cmd_family,
    "vc": _cmd_vc,
    "aa": _cmd_aa,
}


def run(argv: List[str]) -> int:
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
    ctx = _Ctx(args)
    try:
        if args.group == "verify":
            return _cmd_verify(ctx, args)
        return _HANDLERS[args.group](ctx, args)
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
