"""The ordtower benchmark: one workload, one run, every metric.

    python3 bench/run.py --workload {verify-all,closure-warm,cli-cold} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Bytecode, span files and
result records go to ``.bench_build/`` at the repository root.

Each run starts fresh interpreters: set-up probes (import plus context
construction, the fastest, scaled, reported as ``setup_s``) and one worker that serves
the workload as a closed loop, one request at a time.  Times are scaled
to a reference speed by a yardstick timed in the same process (see
``worker.Yardstick`` and README.md).
Every output is checked against ``bench/refs``; a request fails on a
traceback, on an exit code outside {0, 1, 2} or on an output that
differs from the reference.  The last stdout line is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

import workloads
from tracer import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["verify-all", "closure-warm", "cli-cold"]
SETUP_PROBES = 4  # before the worker, and as many after it
CHILD_TIMEOUT_S = 170
# The requests of one pass, by input key; a traced run serves one pass, so
# its counts repeat exactly.
DECK = {
    "verify-all": [workloads.cli_key(workloads.VERIFY_ARGV)],
    "closure-warm": [str(m) for m in workloads.CLOSURE_DECK],
    "cli-cold": [workloads.cli_key(argv) for argv in workloads.CLI_REQUESTS],
}

# Yardstick time at the reference speed, a round figure near the medians
# seen on the two-core host the baseline was taken on.
YARD_REF_S = 2.5e-4

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "req_per_s": "1/s", "p50_ms": "ms"}


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def child_cmd(*args) -> list:
    # -S: the package needs no site-packages, and processing them is the
    # noisiest part of interpreter start on a shared machine
    return [sys.executable, "-I", "-S", "-X", f"pycache_prefix={os.path.join(BUILD, 'pycache')}",
            os.path.join(HERE, "worker.py"), "--root", ROOT, *args]


def run_worker(args: list) -> str:
    """Run a worker to completion; its last stdout line."""
    proc = subprocess.run(child_cmd(*args), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines[-1]


def setup_seconds(workload: str) -> list:
    """Wall time from interpreter start to the first request being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(child_cmd("--workload", workload, "--probe"),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            err = proc.stderr.read()
        if ready.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed: {err.strip()[-2000:]}")
        times.append(t1 - t0)
    return times


# -- references -----------------------------------------------------------------


def load_refs(workload: str, refs_dir: str) -> dict:
    """input -> expected output key, for every input the workload can draw."""
    if workload == "verify-all":
        with open(os.path.join(refs_dir, "verify-all.txt"), encoding="utf-8") as fh:
            return {workloads.cli_key(workloads.VERIFY_ARGV): fh.read()}
    name = "closure-warm.tsv" if workload == "closure-warm" else "cli-cold.tsv"
    refs = {}
    with open(os.path.join(refs_dir, name), encoding="utf-8") as fh:
        for line in fh:
            inp, _, key = line.rstrip("\n").partition("\t")
            refs[inp] = key
    return refs


def request_failed(workload: str, key: str, ref) -> bool:
    """A traceback, an exit code outside {0, 1, 2}, or a reference mismatch."""
    if workload == "cli-cold":
        crashed = key.partition("\t")[0] not in ("0", "1", "2")
    elif workload == "verify-all":
        crashed = key.partition("\n")[0] not in ("exit 0", "exit 1", "exit 2")
    else:
        crashed = key.startswith("traceback")
    return crashed or key != ref


def count_failures(workload: str, res: dict, refs: dict) -> int:
    return sum(request_failed(workload, key, refs.get(inp))
               for inp, key in zip(res["inputs"], res["keys"]))


# -- machine record -------------------------------------------------------------


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of the package sources: 'same code' for the count check."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "ordtower")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_counts(rec: dict, per_layer: dict) -> list:
    """Compare count metrics with an earlier traced run of the same code,
    workload and seed; differences mean the program is nondeterministic."""
    counts = {k: v for k, v in per_layer.items() if isinstance(v, int)}
    key = f"{rec['source_digest']}-{rec['workload']}-seed{rec['seed']}"
    path = os.path.join(BUILD, "counts", key + ".json")
    flags = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        flags = [f"{k}: {before[k]} then {v}" for k, v in counts.items()
                 if k in before and before[k] != v]
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, sort_keys=True)
    return flags


# -- metrics --------------------------------------------------------------------


def percentile_ms(lat: list, q: float):
    """Latency at quantile q, or None when fewer than ten samples lie beyond it."""
    n = len(lat)
    if n * (1 - q) < 10:
        return None
    return statistics.quantiles(lat, n=100, method="inclusive")[int(q * 100) - 1] * 1e3


def scaled_latencies(res: dict) -> list:
    """Each latency scaled to the reference speed by the yardstick samples
    taken from half a second before the request to half a second after."""
    t, d = res["yard_t"], res["yard_s"]
    out = []
    for start, lat in zip(res["start_s"], res["latency_s"]):
        near = d[bisect_left(t, start - 0.5):bisect_right(t, start + lat + 0.5)] or d
        out.append(lat * YARD_REF_S / statistics.median(near))
    return out


def end_to_end(workload: str, res: dict, scaled: list, setup: list) -> dict:
    """The end-to-end metrics of an untraced run, from the scaled latencies.

    Each request of the deck is timed once per pass; its median over the
    passes makes one pass of typical requests, and the metrics describe
    that pass.
    """
    times = {}
    for inp, t in zip(res["inputs"], scaled):
        times.setdefault(inp, []).append(t)
    deck = [statistics.median(times[inp]) for inp in DECK[workload]]
    return {
        # the fastest probe, since a slow spell of the host doubles the time
        # of a process this short and can cover a whole group of probes;
        # scaled by the worker's yardstick, taken between the two groups,
        # since the host's speed drifts over the hour as well
        "setup_s": min(setup) * YARD_REF_S / statistics.median(res["yard_s"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "req_per_s": len(deck) / sum(deck),
        "p50_ms": statistics.median(deck) * 1e3,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"),
                    help="reference directory (the self-test points it at a corrupted copy)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ordtower", "__init__.py")):
        fail(f"no package sources at {os.path.join(ROOT, 'src', 'ordtower')}")
    refs = load_refs(args.workload, args.refs)
    os.makedirs(BUILD, exist_ok=True)
    rec = machine(args)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # build: the first import byte-compiles into .bench_build/pycache
    run_worker(common + ["--probe"])

    if args.trace:
        n = len(DECK[args.workload])
        plain = json.loads(run_worker(common + ["--requests", str(n)]))
        spans = os.path.join(BUILD, f"spans-{args.workload}-seed{args.seed}.tsv")
        traced = json.loads(run_worker(common + ["--requests", str(n), "--trace", "--spans", spans]))
        attempted = len(plain["keys"]) + len(traced["keys"])
        failed = count_failures(args.workload, plain, refs) + count_failures(args.workload, traced, refs)
        metrics = dict(traced["per_layer"])
        # both scaled, so that a change of host speed between the twin runs
        # does not pass for tracing overhead
        metrics["trace.overhead_s"] = sum(scaled_latencies(traced)) - sum(scaled_latencies(plain))
        metrics["error_ratio"] = failed / attempted
        rec["traced_wall_s"] = traced["wall_s"]
        rec["untraced_wall_s"] = plain["wall_s"]
        rec["spans_kept"] = traced["spans_kept"]
        rec["spans_dropped"] = traced["spans_dropped"]
        rec["count_flags"] = check_counts(rec, traced["per_layer"])
        units = dict(metric_units(), **{"trace.overhead_s": "s", "error_ratio": "ratio"})
    else:
        setup = setup_seconds(args.workload)
        res = json.loads(run_worker(common + ["--seconds", str(args.seconds)]))
        setup += setup_seconds(args.workload)
        attempted, failed = len(res["keys"]), count_failures(args.workload, res, refs)
        scaled = scaled_latencies(res)
        metrics = end_to_end(args.workload, res, scaled, setup)
        units = dict(E2E_UNITS)
        rec["samples"] = len(scaled)
        rec["p95_ms"] = percentile_ms(scaled, 0.95)
        rec["p99_ms"] = percentile_ms(scaled, 0.99)
        rec["error_ratio"] = failed / attempted
        rec["raw_p50_ms"] = statistics.median(res["latency_s"]) * 1e3
        rec["raw_req_per_s"] = len(scaled) / sum(res["latency_s"])
        rec["yardstick_median_s"] = statistics.median(res["yard_s"])
        rec["setup_probes_s"] = setup
        rec["raw_setup_s"] = min(setup)

    for k, v in rec.items():
        print(f"# {k}: {v}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out = os.path.join(BUILD, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"machine": rec, "metrics": metrics}, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
