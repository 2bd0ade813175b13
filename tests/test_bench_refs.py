"""The benchmark decks, replayed against their references in ``bench/refs``.

cli-cold's 128 argvs and closure-warm's sets are served here exactly as
``bench/worker.py`` serves them, through the clients of
``bench/workloads.py``, so a change that moves one of their outputs turns
Tier-1 red without a benchmark run.  The replay runs in its own process,
with fresh module caches, as a benchmark worker does.
"""

import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

_REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ordtower.cli, workloads
cli = workloads.CliClient(ordtower.cli)
closure = workloads.ClosureClient(ordtower)
json.dump({
    "cli-cold": {workloads.cli_key(argv): cli.request(argv) for argv in workloads.CLI_REQUESTS},
    "closure-warm": {str(mask): closure.request(mask) for mask in workloads.CLOSURE_DECK},
}, sys.stdout)
"""


def _refs(name: str) -> dict:
    lines = (BENCH / "refs" / f"{name}.tsv").read_text(encoding="utf-8").splitlines()
    return dict(line.partition("\t")[::2] for line in lines)


def test_both_decks_match_their_references():
    r = subprocess.run([sys.executable, "-c", _REPLAY, str(BENCH)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    for name, n in [("cli-cold", 128), ("closure-warm", 177)]:
        assert len(got[name]) == n
        assert got[name] == _refs(name)
