"""Show that the output gates bite: a corrupted reference must fail a run.

    python3 bench/selftest.py

For each workload, copies ``bench/refs`` to ``.bench_build/selftest-refs``,
corrupts the reference of the first request that seed 1 draws, runs the
benchmark against the copy and requires ``correct: false`` with at least
one failed request, i.e. an error ratio above 0.  Takes about a minute,
most of it verify-all's one request.  Exits 1 if any gate let the
corrupted reference through.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 1


def corrupt_line(path: str, key: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        if line.startswith(key + "\t"):
            lines[i] = line.rstrip("\n") + "-corrupted\n"
            break
    else:
        raise SystemExit(f"no reference for {key!r} in {path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def corrupt(workload: str, refs: str) -> None:
    if workload == "verify-all":
        path = os.path.join(refs, "verify-all.txt")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("PASS", "FAIL", 1))
    elif workload == "closure-warm":
        first = next(workloads.passes(workloads.CLOSURE_DECK, SEED))[0]
        corrupt_line(os.path.join(refs, "closure-warm.tsv"), str(first))
    else:
        first = next(workloads.passes(workloads.CLI_REQUESTS, SEED))[0]
        corrupt_line(os.path.join(refs, "cli-cold.tsv"), workloads.cli_key(first))


def main() -> None:
    names = ["closure-warm", "cli-cold", "verify-all"]
    refs = os.path.join(ROOT, ".bench_build", "selftest-refs")
    ok = True
    for name in names:
        shutil.rmtree(refs, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "refs"), refs)
        corrupt(name, refs)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", "2", "--trace", "0", "--refs", refs],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"FAIL {name}: the run itself failed: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = res["failed"] / res["attempted"]
        bit = not res["correct"] and res["failed"] >= 1
        ok = ok and bit
        print(f"{'PASS' if bit else 'FAIL'} {name}: corrupted reference gives "
              f"correct={res['correct']}, failed {res['failed']} of {res['attempted']}, "
              f"error ratio {ratio:.4f}")
    shutil.rmtree(refs, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
