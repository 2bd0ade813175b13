"""Capture the output references the benchmark checks against.

    python3 bench/capture.py

Runs every input each workload can draw and writes its output key to
``bench/refs/``.  Run it only on a commit whose outputs are known good:
the references define "correct" for every later run, and a change to
the construction re-captures them on purpose and says so.
Takes about two minutes, most of it in verify-all.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ordtower  # noqa: E402
import ordtower.cli  # noqa: E402
import workloads  # noqa: E402


def capture_verify() -> None:
    # the shell invocation itself, so the worker's in-process run is held
    # byte for byte to `ordtower verify all --seed 1`
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "ordtower", *workloads.VERIFY_ARGV],
                          capture_output=True, text=True, env=env, check=False)
    key = f"exit {proc.returncode}\n{proc.stdout}"
    if key != workloads.VerifyClient(ordtower.cli).request(workloads.VERIFY_ARGV):
        raise SystemExit("in-process verify output differs from the shell invocation")
    with open(os.path.join(REFS, "verify-all.txt"), "w", encoding="utf-8") as fh:
        fh.write(key)


def capture_closure() -> None:
    w2 = ordtower.parse_ordinal("w^2")
    pool = [str(ordtower.enum_below(w2, i)) for i in range(16)]
    if pool != workloads.CLOSURE_POOL:
        raise SystemExit(f"CLOSURE_POOL is not enum_below(w^2, 0..15): {pool}")
    client = workloads.ClosureClient(ordtower)
    masks = sorted(set(workloads.CLOSURE_DECK))
    with open(os.path.join(REFS, "closure-warm.tsv"), "w", encoding="utf-8") as fh:
        for m in masks:
            fh.write(f"{m}\t{client.request(m)}\n")


def capture_cli() -> None:
    client = workloads.CliClient(ordtower.cli)
    with open(os.path.join(REFS, "cli-cold.tsv"), "w", encoding="utf-8") as fh:
        for argv in workloads.CLI_REQUESTS:
            fh.write(f"{workloads.cli_key(argv)}\t{client.request(argv)}\n")


def main() -> None:
    os.makedirs(REFS, exist_ok=True)
    for name, step in [("verify-all", capture_verify), ("closure-warm", capture_closure),
                       ("cli-cold", capture_cli)]:
        step()
        print(f"captured {name}", flush=True)


if __name__ == "__main__":
    main()
