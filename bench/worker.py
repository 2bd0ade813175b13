"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object on its last stdout line with
the request inputs, output keys and latencies, the wall time of the
request loop, the peak RSS and, when traced, the per-layer metrics.

    python3 -I bench/worker.py --root ROOT --workload NAME --seed N \
        --seconds S [--requests N] [--trace] [--probe]

``--probe`` only measures set-up: it imports the package, builds the
workload's context, prints ``ready`` and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ordtower
    import ordtower.cli

    where = os.path.realpath(ordtower.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ordtower imported from {where}, not from {src}")
    return ordtower


_YARD_TABLE = {(i, i & 7): i for i in range(512)}


def _yard_work() -> int:
    # fixed pure-Python work that never touches the package: tuple keys,
    # hashing, dict lookups and tuple compares, the package's own staples,
    # so that the yardstick slows down with the host as the package does
    acc = 0
    for i in range(300):
        k = (i & 511, i & 7)
        acc += _YARD_TABLE.get(k, 0)
        t = (k, i)
        if t < (k, 150):
            acc += 1
        acc ^= hash(t) & 0xFF
    return acc


def _timed_yard_work() -> float:
    # no collection may start inside the yardstick and be billed to it
    enabled = gc.isenabled()
    gc.disable()
    a = time.perf_counter()
    _yard_work()
    b = time.perf_counter()
    if enabled:
        gc.enable()
    return b - a


class Yardstick:
    """Samples how fast this core runs, while the requests run.

    A timer signal interrupts the request loop every 50 ms to time a
    fixed piece of work.  A busy core on a shared host switches between
    clock speeds every few seconds; run.py scales each request by the
    yardstick's speed around it, which takes that drift out.  Time spent
    in the handler is taken out of the request latencies.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.t: list = []
        self.dur: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        a = time.perf_counter()
        self.t.append(a)
        self.dur.append(_timed_yard_work())
        self.spent += time.perf_counter() - a

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True,
                    choices=["verify-all", "closure-warm", "cli-cold"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--requests", type=int, default=None,
                    help="run exactly this many requests instead of --seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="file to write the spans to")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, HERE)
    import workloads

    ot = _import_package(args.root)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if args.workload == "closure-warm":
        client, deck, key_of = workloads.ClosureClient(ot), workloads.CLOSURE_DECK, str
    elif args.workload == "cli-cold":
        client, deck, key_of = (workloads.CliClient(ot.cli), workloads.CLI_REQUESTS,
                                workloads.cli_key)
    else:
        client, deck, key_of = (workloads.VerifyClient(ot.cli), [workloads.VERIFY_ARGV],
                                workloads.cli_key)
    if args.probe:
        print("ready", flush=True)
        return

    # verify-all serves its one request once: a second one would find the
    # module caches warm
    limit = 1 if args.workload == "verify-all" else args.requests
    yard = Yardstick()
    if tracer is not None:
        built_at_setup = list(tracer.contexts)
        tracer.contexts.clear()
    inputs, keys, starts, lat = [], [], [], []
    clock = time.perf_counter
    yard.start()
    t0 = clock()
    # stop on a pass boundary, so every run serves whole passes
    for item in (x for batch in workloads.passes(deck, args.seed) for x in batch):
        n = len(keys)
        if limit is not None:
            if n >= limit:
                break
        elif n % len(deck) == 0 and clock() - t0 >= args.seconds:
            break
        if tracer is not None:
            tracer.request = n
        spent = yard.spent
        s = clock()
        try:
            key = client.request(item)
        except Exception as exc:  # noqa: BLE001 -- a traceback fails the request
            key = f"traceback {type(exc).__name__}: {exc}"
        e = clock()
        starts.append(s)
        lat.append(e - s - (yard.spent - spent))
        inputs.append(key_of(item))
        keys.append(key)
        if tracer is not None:
            tracer.harvest()
        if args.workload == "cli-cold":
            # what the request left behind goes, as when a command exits
            gc.collect()
    wall = clock() - t0
    yard.stop()

    out = {
        "inputs": inputs,
        "keys": keys,
        "start_s": starts,
        "latency_s": lat,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "yard_t": yard.t,
        "yard_s": yard.dur,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.contexts.extend(built_at_setup)
        tracer.harvest()
        out["per_layer"] = tracer.metrics()
        out["spans_kept"] = len(tracer.sp_id)
        out["spans_dropped"] = tracer.dropped
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
