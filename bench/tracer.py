"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces the traced functions and methods with
wrappers: module functions in every ``ordtower`` module that imported
them, methods on their class.  Each call opens a span (name, start,
end, parent span, request id).  Calls and self time (a span's duration
minus the time its child spans cover) are summed as the spans close;
the spans themselves are kept in memory, up to a cap, and written out
when the run ends.  Memo-size counters are read from the contexts the
traced constructors registered, after each request.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer -> [(metric name, owner, attribute)]; owner is a module name, or
# "module:Class" for a method.
TRACED = {
    "ordinals": [("enum_below", "ordinals", "enum_below"),
                 ("fund_seq", "ordinals", "fund_seq"),
                 ("add", "ordinals", "add"),
                 ("parse_ordinal", "ordinals", "parse_ordinal")],
    "tower": [("rank", "tower:Tower", "rank"),
              ("nth", "tower:Tower", "nth"),
              ("close", "tower:Tower", "close"),
              ("blocks", "tower:Tower", "blocks"),
              ("grow", "tower:Tower", "_grow")],
    "family": [("is_closed", "family", "is_closed"),
               ("cofinal_extend", "family", "cofinal_extend"),
               ("enumerate_family", "family", "enumerate_family"),
               ("ladder", "family", "ladder")],
    "vc": [("vc_dim", "vc", "vc_dim"),
           ("hunt_shattered", "vc", "hunt_shattered"),
           ("sauer_check", "vc", "sauer_check"),
           ("cond4_check", "vc", "cond4_check")],
    "omega": [("order", "omega:AAOrders", "order"),
              ("exception_set", "omega:AAOrders", "exception_set"),
              ("verify_exception", "omega:AAOrders", "verify_exception"),
              ("chain_order", "omega:AAOrders", "chain_order"),
              ("adjust", "omega", "_adjust"),
              ("extend", "omega:LimitOrder", "_extend")],
    "cli": [("run", "cli", "run")],
}

# The 14 checks of `verify all`, by result name.
VERIFY_CHECKS = [
    "tower-trichotomy-roundtrip", "ordinal-literal-roundtrip",
    "closure-extend-sound", "closure-close-sound", "ladder-biconditional",
    "closed-alltriples-oracle", "cond4-triples", "window-vc-dim",
    "sauer-windows", "section-size-identity", "trace-brute-oracle",
    "aa-order-type", "aa-almost-agree", "adjust-unit-law",
]

COUNTERS = [
    "ordinals.enum_cache_entries",
    "tower.order_len_total", "tower.order_len_max", "tower.limits_cached",
    "family.member_size_max",
    "omega.orders_cached", "omega.chain_orders_cached", "omega.exc_cached",
    "omega.limit_seq_len_total", "omega.cert_points_max",
]
RATIOS = ["family.window_accept_ratio"]


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, fns in TRACED.items():
        for fn, _, _ in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update(dict.fromkeys(RATIOS, "ratio"))
    units.update({f"verify.{c}.s": "s" for c in VERIFY_CHECKS})
    return units


# Spans kept for writing out; later ones still count toward calls and self
# time.  A million spans take about 40 MB.
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        # span columns: id, name, parent, request, start, end
        self.sp_id, self.sp_name = array("q"), array("i")
        self.sp_parent, self.sp_req = array("q"), array("q")
        self.sp_start, self.sp_end = array("d"), array("d")
        self.dropped = 0
        self.request = -1
        self._stack: list = []  # [span id, start, child time, name id]
        self._next_id = 0
        self._restore: list = []
        self.contexts: list = []  # Tower / AAOrders built during the request
        self.counts = dict.fromkeys(COUNTERS, 0)
        # enumerate_family: members kept from cofinal_extend / extend calls
        self.window_members = 0
        self.window_extends = 0
        self._win = (-1, [], set())  # open window span, extend results, blocks
        self.check_s = dict.fromkeys(VERIFY_CHECKS, 0.0)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            sid = tr._next_id
            tr._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0, nid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(tr.sp_id) < MAX_SPANS:
                    tr.sp_id.append(sid)
                    tr.sp_name.append(nid)
                    tr.sp_parent.append(parent)
                    tr.sp_req.append(tr.request)
                    tr.sp_start.append(frame[1])
                    tr.sp_end.append(end)
                else:
                    tr.dropped += 1
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: str, attr: str, wrapper) -> None:
        mod_name, _, cls_name = owner.partition(":")
        mod = sys.modules[f"ordtower.{mod_name}"]
        if cls_name:
            cls = getattr(mod, cls_name)
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
            return
        original = getattr(mod, attr)
        # rebind the name in every module that imported the function
        for name, m in list(sys.modules.items()):
            if name != "ordtower" and not name.startswith("ordtower."):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    self._restore.append((m, key, val))
                    setattr(m, key, wrapper)

    def install(self) -> None:
        import ordtower  # noqa: F401 -- loads every submodule
        from ordtower import omega, tower, verify

        hooks = {
            "family.cofinal_extend": self._on_extend,
            "tower.blocks": self._on_blocks,
            "family.enumerate_family": self._on_window,
            "omega.exception_set": self._on_cert,
        }
        for layer, fns in TRACED.items():
            for fn, owner, attr in fns:
                mod_name, _, cls_name = owner.partition(":")
                mod = sys.modules[f"ordtower.{mod_name}"]
                target = getattr(getattr(mod, cls_name), attr) if cls_name else getattr(mod, attr)
                name = f"{layer}.{fn}"
                self._patch(owner, attr, self._wrap(name, target, hooks.get(name)))

        for attr in [a for a in vars(verify) if a.startswith("_check_")]:
            self._patch("verify", attr, self._wrap_check(getattr(verify, attr)))

        tr = self
        for cls in (tower.Tower, omega.AAOrders):
            init = cls.__dict__["__init__"]

            def registering(obj, *args, _init=init, **kwargs):
                _init(obj, *args, **kwargs)
                tr.contexts.append(obj)

            self._restore.append((cls, "__init__", init))
            cls.__init__ = registering

    def _wrap_check(self, fn):
        tr = self

        def check(*args, **kwargs):
            t0 = time.perf_counter()
            res = fn(*args, **kwargs)
            tr.check_s[res.name] = tr.check_s.get(res.name, 0.0) + time.perf_counter() - t0
            return res

        return check

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    # -- counters -------------------------------------------------------------

    def _bump_max(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def _window_parts(self):
        """Result lists of the enumerate_family call on the stack, or None."""
        window = self.names.index("family.enumerate_family")
        for frame in self._stack:
            if frame[3] == window:
                if self._win[0] != frame[0]:  # a new call; drop an aborted one
                    self._win = (frame[0], [], set())
                return self._win
        return None

    def _on_extend(self, result, args) -> None:
        self._bump_max("family.member_size_max", len(result))
        parts = self._window_parts()
        if parts is not None:
            parts[1].append(result)

    def _on_blocks(self, result, args) -> None:
        parts = self._window_parts()
        if parts is not None:
            parts[2].add(result)

    def _on_window(self, result, args) -> None:
        _, extends, blocks = self._win
        from_extend = set(extends) - blocks
        self.window_members += sum(1 for m in result.members if m in from_extend)
        self.window_extends += len(extends)
        self._win = (-1, [], set())
        for m in result.members:
            self._bump_max("family.member_size_max", len(m))

    def _on_cert(self, result, args) -> None:
        self._bump_max("omega.cert_points_max", len(result.points))

    def harvest(self) -> None:
        """Read the memo sizes of the contexts built since the last harvest."""
        from ordtower.omega import LimitOrder

        for ctx in self.contexts:
            if hasattr(ctx, "_order"):  # Tower
                lens = [len(o) for o in ctx._order.values()]
                self.counts["tower.order_len_total"] += sum(lens)
                self._bump_max("tower.order_len_max", max(lens, default=0))
                self.counts["tower.limits_cached"] += len(ctx._chain)
            else:  # AAOrders
                self.counts["omega.orders_cached"] += len(ctx._orders)
                self.counts["omega.chain_orders_cached"] += len(ctx._chain_orders)
                self.counts["omega.exc_cached"] += len(ctx._exc)
                self.counts["omega.limit_seq_len_total"] += sum(
                    len(o._seq) for o in ctx._orders.values() if isinstance(o, LimitOrder))
        self.contexts.clear()

    def metrics(self) -> dict:
        from ordtower import ordinals

        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        counts = dict(self.counts)
        counts["ordinals.enum_cache_entries"] = sum(
            len(v) for v in getattr(ordinals, "_enum_lists", {}).values())
        out.update(counts)
        ext = self.window_extends
        out["family.window_accept_ratio"] = self.window_members / ext if ext else 0.0
        for name, secs in self.check_s.items():
            out[f"verify.{name}.s"] = secs
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\trequest\tstart\tend\n")
            names = self.names
            for i in range(len(self.sp_id)):
                fh.write(f"{self.sp_id[i]}\t{names[self.sp_name[i]]}\t{self.sp_parent[i]}\t"
                         f"{self.sp_req[i]}\t{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\n")
