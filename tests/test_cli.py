"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import shlex
import subprocess
import sys
import time
import traceback

import pytest

from ordtower import AAOrders, Tower, cli, parse_ordinal, tower

CMD = [sys.executable, "-m", "ordtower"]


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kw)


def test_ord_cmp():
    r = run("ord", "cmp", "w+1", "w*2")
    assert r.returncode == 0
    assert r.stdout.strip() == "LT"
    assert run("ord", "cmp", "w*2", "w*2").stdout.strip() == "EQ"
    assert run("ord", "cmp", "w^2", "w*9+44").stdout.strip() == "GT"


def test_ord_add_and_parse():
    assert run("ord", "add", "w*2+1", "w").stdout.strip() == "w*3"
    assert run("ord", "parse", "w^2*3+w*2+7").stdout.strip() == "w^2*3+w*2+7"
    assert run("ord", "parse", "w^1*1+0").stdout.strip() == "w"


def test_ord_fund_and_enum():
    assert run("ord", "fund", "w^2", "3").stdout.strip() == "w*3"
    r = run("ord", "enum", "w+2", "--count", "3")
    assert r.stdout.splitlines() == ["w+1", "w", "0"]
    assert run("ord", "enum", "w*2", "5").stdout.strip() == "3"


def test_tower_rank_and_nth():
    assert run("tower", "rank", "--alpha", "w+1", "w").stdout.strip() == "0"
    assert run("tower", "nth", "--alpha", "w+1", "0").stdout.strip() == "w"
    assert run("tower", "rank", "--alpha", "w*2", "w+3").stdout.strip() == "6"


def test_tower_close_and_blocks():
    r = run("tower", "close", "--alpha", "w", "2,5")
    assert r.stdout.strip() == "0,1,2,3,4,5"
    r = run("tower", "blocks", "--alpha", "w", "3")
    assert (r.returncode, r.stdout) == (0, "0,1,2,3\n")


def test_tower_blocks_refuses_before_building(monkeypatch, capsys):
    # a successor or a negative index is refused before any order is built
    def unused(self, alpha):
        raise AssertionError(f"order at {alpha} built")

    monkeypatch.setattr(tower.Orders, "_order_at", unused)
    for argv, err in [(["w+3", "1"], "blocks requires a limit ordinal, got w+3"),
                      (["w^2", "-1"], "block index must be >= 0, got -1")]:
        assert cli.run(["tower", "blocks", "--alpha", *argv]) == 1
        assert capsys.readouterr().err == f"error: domain: {err}\n"


def test_tower_turnstile():
    assert run("tower", "turnstile", "--alpha", "9", "2", "5").stdout.strip() == "true"
    assert run("tower", "turnstile", "--alpha", "9", "5", "2").stdout.strip() == "false"


def test_family_check_and_extend():
    assert run("family", "check", "0,1,2").stdout.strip() == "CLOSED"
    assert run("family", "check", "0,2").stdout.strip() == "NOT_CLOSED"
    assert run("family", "extend", "2").stdout.strip() == "0,1,2,3"
    assert run("family", "extend", "").stdout.strip() == "0,1"


def test_family_window_json_roundtrip(tmp_path):
    r = run("family", "window", "--bound", "w", "--count", "6", "--seed", "1",
            "--output", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["seed"] == 1 and len(doc["members"]) == 6
    f = tmp_path / "win.json"
    f.write_text(r.stdout)
    d = run("vc", "dim", "0,1,2,3,4", "--window", str(f))
    assert d.returncode == 0
    assert d.stdout.strip() == "1"


def test_family_window_deterministic():
    a = run("family", "window", "--bound", "w*2", "--count", "8", "--seed", "3")
    b = run("family", "window", "--bound", "w*2", "--count", "8", "--seed", "3")
    assert a.stdout == b.stdout and a.returncode == 0


def test_vc_hunt_and_sauer(tmp_path):
    win = run("family", "window", "--bound", "w", "--count", "10", "--seed", "1",
              "--output", "json").stdout
    f = tmp_path / "w.json"
    f.write_text(win)
    # initial segments form a chain: no 2-set is shattered
    assert run("vc", "hunt", "2", "--window", str(f)).stdout.strip() == "NONE"
    assert run("vc", "hunt", "1", "--window", str(f)).stdout.strip() != "NONE"
    assert run("vc", "sauer", "1", "--window", str(f)).stdout.strip() == "OK"


def test_vc_cond4():
    assert run("vc", "cond4", "1,2,5").stdout.strip() == "true"
    r = run("vc", "cond4", "1,2")
    assert r.returncode == 1
    assert r.stderr.startswith("error: domain:")


def test_aa_exceptions_and_verify():
    r = run("aa", "exceptions", "w*2", "w*3")
    assert r.returncode == 0
    assert "3 exception points" in r.stdout
    v = run("aa", "verify", "w*2", "w*3", "--count", "100", "--seed", "4")
    assert v.returncode == 0
    assert v.stdout.startswith("OK")


def test_aa_rank_nth():
    assert run("aa", "nth", "--alpha", "w*2", "0").stdout.strip() == "w"
    assert run("aa", "rank", "--alpha", "w*2", "w").stdout.strip() == "0"


def test_error_exit_codes():
    r = run("ord", "parse", "w^")
    assert r.returncode == 1
    assert r.stderr.startswith("error: syntax:")
    r = run("tower", "rank", "--alpha", "w", "w+1")
    assert r.returncode == 1
    assert r.stderr.startswith("error: domain:")
    r = run("ord", "fund", "w+1", "2")
    assert r.returncode == 1
    assert r.stderr.startswith("error: not-a-limit:")
    assert run().returncode == 2
    assert run("ord").returncode == 2
    assert run("nope").returncode == 2


def test_one_point_above_the_cap_is_refused():
    # a one-point set asks for no rank, so is_closed checks the cap itself
    for argv in (["family", "check", "w^3+1"], ["family", "check", "w^4"],
                 ["family", "check", "0,w^3+1"], ["tower", "rank", "--alpha", "w^3+1", "0"]):
        code, out, err = _run_in_process(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: cap-exceeded: ") and err.count("\n") == 1, argv
    assert _run_in_process(["family", "check", ""]) == (0, "CLOSED\n", "")
    assert _run_in_process(["family", "check", "w^3"]) == (0, "CLOSED\n", "")


def test_the_cap_is_one_constant_not_an_option():
    assert tower.CAP is parse_ordinal("w^3")
    for cls in (Tower, AAOrders):
        with pytest.raises(TypeError):
            cls(parse_ordinal("w^4"))
    for words, (_, positionals, options) in cli._COMMANDS.items():
        assert "cap" not in options, words
        code, out, err = _run_in_process([*_sample_argv(words, positionals), "--cap", "w^3"])
        assert (code, out) == (2, ""), words
        assert "unrecognized arguments: --cap w^3" in err, words


def test_negative_counts_are_domain_errors():
    for argv in [("vc", "hunt", "-1", "--bound", "w", "--count", "12"),
                 ("vc", "sauer", "-1"),
                 ("aa", "verify", "w", "w*2", "--count", "-3"),
                 ("ord", "enum", "w", "--count", "-2")]:
        r = run(*argv)
        assert r.returncode == 1, argv
        assert r.stderr.startswith("error: domain:"), argv
        assert "Traceback" not in r.stderr and r.stdout == "", argv


def test_zero_bound_window_is_a_domain_error():
    for argv in [("family", "window", "--bound", "0", "--count", "3"),
                 ("vc", "dim", "0,1", "--bound", "0", "--count", "3")]:
        r = run(*argv)
        assert r.returncode == 1, argv
        assert r.stderr.startswith("error: domain: family window needs bound > 0"), argv
        assert "Traceback" not in r.stderr and r.stdout == "", argv
    r = run("family", "window", "--bound", "0", "--count", "0")
    assert r.returncode == 0
    assert r.stdout.strip() == "bound: 0  seed: 1  members: 0"


def nested(depth):
    # canonical literal with `depth` nested parentheses: w^(w^(...w^w...))
    return "w^(" * depth + "w^w" + ")" * depth


def test_nesting_bound():
    lit = nested(100)
    r = run("ord", "parse", lit)
    assert r.returncode == 0 and r.stdout.strip() == lit
    for depth in [101, 400]:
        r = run("ord", "parse", nested(depth))
        assert r.returncode == 1
        assert r.stderr.startswith("error: syntax:")
        assert "Traceback" not in r.stderr


def test_long_naturals_are_syntax_errors():
    # int() refuses to convert past 4300 digits; the parser stops far below
    nines = "9" * 1000
    assert _run_in_process(["ord", "add", "w*" + nines, "w*" + nines]) == (
        0, "w*1" + "9" * 999 + "8\n", "")
    for argv in (["ord", "parse", "9" * 5000], ["ord", "add", "w*" + "9" * 5000, "1"],
                 ["ord", "parse", "9" * 1001], ["ord", "parse", "\u00b2"]):
        code, out, err = _run_in_process(argv)
        assert (code, out) == (1, ""), argv[-1][:20]
        assert err.startswith("error: syntax: ") and err.count("\n") == 1, argv[-1][:20]


def test_syntax_error_quotes_only_the_head_of_a_long_input():
    code, out, err = _run_in_process(["ord", "parse", "9" * 5000])
    assert (code, out) == (1, "")
    assert err.startswith("error: syntax: ") and err.endswith("(at position 5000)\n")
    assert "'" + "9" * 40 + "'…" in err
    assert len(err.encode("utf-8")) < 200
    code, out, err = _run_in_process(["ord", "parse", "w+"])
    assert err == "error: syntax: expected a term in 'w+' (at position 2)\n"


def test_the_cli_never_imports_typing():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import ordtower.cli; "
         "print('typing' in sys.modules)", src],
        capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


def test_the_cli_never_imports_dataclasses_or_inspect():
    # dataclasses pulls in inspect, and with it ast, dis and tokenize
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import ordtower.cli; "
         "print('dataclasses' in sys.modules, 'inspect' in sys.modules)", src],
        capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "False False\n", "")


def test_records_keep_their_fields_defaults_and_immutability():
    import ordtower as ot

    w2 = ot.parse_ordinal("w^2")
    cfg = ot.VerifyConfig()
    assert cfg._fields == ("seed", "bound") and (cfg.seed, cfg.bound) == (1, w2)
    assert cfg == ot.VerifyConfig(seed=1, bound=w2) != ot.VerifyConfig(seed=2)
    assert repr(ot.VerifyResult(True)) == "VerifyResult(ok=True, witness=None)"
    assert not ot.VerifyResult(False, (ot.W, ot.ZERO)) and ot.VerifyResult(True)
    res = ot.CheckResult("x", False, "why")
    assert res.line() == "FAIL x: why"
    rmk = ot.RmkResult(ot.RmkValue.TRUE_IN_WINDOW, None, None)
    assert rmk and rmk.window_relative is True
    window = ot.FamilyWindow(bound=ot.W, seed=3, members=((ot.ZERO,), (ot.ONE,)))
    assert window.count == 2
    assert ot.FamilyWindow.from_dict(window.to_dict()) == window
    cert = ot.ExceptionCert(lower=ot.W, upper=w2, points=(ot.ZERO,))
    for record, field in [(cfg, "seed"), (res, "passed"), (rmk, "value"),
                          (window, "members"), (cert, "points")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_deep_enumeration_ends_in_an_error():
    assert run("ord", "enum", "w*99999999999999", "3").stdout.strip() == "w*99999999999997"
    assert run("ord", "enum", "w*400", "3").stdout.strip() == "w*398"
    # index 0 descends once per w below the top: past CEILING steps it stops
    r = run("ord", "enum", "w*99999999999999", "0")
    assert r.returncode == 1
    assert r.stderr.startswith("error: ceiling:")
    assert "Traceback" not in r.stderr
    r = run("ord", "enum", "w*99999999999999", "--count", "3")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == ("error: ceiling: enumeration below w*99999999999999 "
                        "exceeded 20000 descent steps\n")


def test_closure_past_the_block_ceiling_ends_in_an_error():
    # close(w^2, [5]) needs more stages at w*14 than the reach ceiling allows
    r = run("tower", "close", "--alpha", "w^2", "5", timeout=10)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: ceiling: block construction at w*14 exceeded 20000 stages\n"


def test_verify_below_a_tiny_bound_ends_in_a_domain_error():
    # at bound 1 every closure apex drawn is 0; the draws are budgeted, so
    # the check stops instead of looping
    r = run("verify", "family", "--bound", "1", timeout=60)
    assert r.returncode == 1
    assert r.stderr.startswith("error: domain: sample space too small")
    assert "Traceback" not in r.stderr


_VERIFY_GRID = """
import contextlib, hashlib, io
from ordtower import cli
digest = hashlib.sha256()
for bound in ("w*2", "w*5", "w^2"):
    for seed in range(1, 11):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["verify", "all", "--bound", bound, "--seed", str(seed)])
        digest.update(f"{bound}\\t{seed}\\t{code}\\n{out.getvalue()}".encode())
print(digest.hexdigest())
"""


def test_verify_all_on_a_grid_of_seeds_and_bounds_is_pinned():
    # 30 runs, each on fresh contexts, all exit 0; the digest over (bound,
    # seed, exit code, stdout) pins every line, so a change that moves one
    # must re-pin it on purpose
    r = subprocess.run([sys.executable, "-c", _VERIFY_GRID],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "e54f221563b6ba0cf3bdca11230ab0b4ec0a4d4e65cbfbec24ed018e8447381d\n"


@pytest.mark.parametrize("bound", ["w^2+w", "w^2*2"])
def test_verify_above_w_squared_answers(bound):
    # closures of about 6,000 points, judged once per limit segment
    r = run("verify", "all", "--bound", bound, "--seed", "1", timeout=60)
    assert (r.returncode, r.stderr) == (0, "")
    lines = r.stdout.splitlines()
    assert len(lines) == 14 and all(line.startswith("PASS ") for line in lines)


def test_verify_at_w_squared_times_3_stops_at_the_ceiling():
    # closure-close-sound stops at the block ceiling and prints it as its
    # FAIL line; the other 13 checks print the lines they print at w^2
    r = run("verify", "all", "--bound", "w^2*3", "--seed", "1", timeout=60)
    assert (r.returncode, r.stderr) == (1, "")
    ref = pathlib.Path(__file__).resolve().parents[1] / "bench" / "refs" / "verify-all.txt"
    want = ref.read_text().splitlines()[1:]
    want[3] = "FAIL closure-close-sound: ceiling: block construction at w*14 exceeded 20000 stages"
    assert r.stdout.splitlines() == want


def test_deep_index_answers_at_once():
    # each descent step finds its walk position by arithmetic, and these take 2 and 3 steps
    assert run("ord", "enum", "w^2", "100000000").stdout.strip() == "w*8989+5152"
    r = run("ord", "enum", "w^3", "1" + "0" * 30)
    assert r.stdout.strip() == "w^2*776122791247035+w*25445656+10278026"


def test_vc_shatter_certificate_is_stable_sorted_json():
    first, again = (run("vc", "shatter", "2,w") for _ in range(2))
    assert first.returncode == 0 and first.stdout == again.stdout
    doc = json.loads(first.stdout)
    assert first.stdout == json.dumps(doc, sort_keys=True) + "\n"
    assert doc["set"] == ["2", "w"] and sorted(doc["witnesses"]) == ["0", "1", "2", "3"]


def test_vc_shatter_failure_names_literals():
    r = run("vc", "shatter", "0", "--bound", "w", "--count", "5")
    assert r.returncode == 1
    assert r.stderr.strip() == "error: domain: {0} is not shattered: subset {} unrealized"
    r = run("vc", "shatter", "w,w+1", "--bound", "w^2", "--count", "8")
    assert r.stderr.strip() == (
        "error: domain: {w,w+1} is not shattered: subset {w+1} unrealized")


def test_verify_suite_deterministic():
    a = run("verify", "vc", "--seed", "1")
    b = run("verify", "vc", "--seed", "1")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    for line in a.stdout.splitlines():
        assert line.startswith("PASS ")


def test_verify_json_output():
    r = run("verify", "vc", "--seed", "1", "--output", "json")
    doc = json.loads(r.stdout)
    assert doc["results"]
    assert all(d["passed"] for d in doc["results"])


_RUN_AFTER_INTERNING = """
import sys
from ordtower import cli, ordinal
if sys.argv[1] == "intern":
    # throwaway values move every later allocation, so every identity hash
    [ordinal(n) for n in range(10_000, 20_000)]
sys.exit(cli.run(sys.argv[2:]))
"""


def test_output_does_not_depend_on_identity_hashes():
    for argv in (["family", "window", "--bound", "w^2", "--count", "12", "--output", "json"],
                 ["aa", "exceptions", "w*2", "w^2*2"],
                 ["aa", "exceptions", "w+3", "w*3"],
                 ["vc", "hunt", "2"],
                 ["verify", "vc"]):
        plain, interned = (
            subprocess.run([sys.executable, "-c", _RUN_AFTER_INTERNING, mode, *argv],
                           capture_output=True, text=True)
            for mode in ("plain", "intern"))
        assert plain.returncode == interned.returncode == 0, argv
        assert plain.stdout and plain.stdout == interned.stdout, argv


def test_options_go_after_the_subcommand():
    # a group takes no options of its own, so none is parsed and then lost
    for argv in (("tower", "--output", "json", "rank", "--alpha", "w*2", "3"),
                 ("ord", "--output", "json", "add", "1", "2")):
        r = run(*argv)
        assert r.returncode == 2, argv
        assert r.stderr.startswith("usage: ordtower "), argv
        assert r.stdout == "", argv
    r = run("tower", "rank", "--alpha", "w*2", "3", "--output", "json")
    assert (r.returncode, r.stdout) == (0, '{"rank": 8}\n')
    assert run("ord", "add", "1", "2", "--output", "json").stdout.strip() == '{"sum": "3"}'


_MIXED_ARGVS = (
    ["ord", "add", "w+1", "w"],
    ["tower", "rank", "--alpha", "w", "w+1"],
    ["ord", "cmp", "w"],
    ["ord", "cmp", "w", "w+1", "--output", "json"],
    ["ord", "cmp", "w", "w+1"],
    ["tower", "rank", "--alpha", "w^3+1", "w+3"],
    ["tower", "rank", "--alpha", "w*2", "w+3"],
)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_like_a_fresh_process(monkeypatch):
    # argparse wraps usage lines to COLUMNS; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    fresh = [run(*argv) for argv in _MIXED_ARGVS]
    fresh = [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in fresh] == [0, 1, 2, 0, 0, 1, 0]
    assert fresh[1][2].startswith("error: domain:")
    for _ in range(2):
        assert [_run_in_process(argv) for argv in _MIXED_ARGVS] == fresh
    assert cli._build_parser() is cli._build_parser()


def test_a_command_builds_only_its_groups_leaves(monkeypatch):
    # each group's tree lists all six groups in the top-level help, and
    # leaves under its own group only
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._build_parser()

    def groups(tree):
        return tree._subparsers._group_actions[0].choices

    for name in cli._GROUPS:
        tree = cli._build_parser(name)
        assert tree.format_help() == full.format_help()
        for other, parser in groups(tree).items():
            if other == name:
                assert parser.format_help() == groups(full)[other].format_help()
            else:
                assert parser.get_default("handler") is None and parser._subparsers is None


def test_closed_stdout_ends_quietly():
    # the listing is far past a pipe buffer, so the write after close fails
    p = subprocess.Popen(CMD + ["ord", "enum", "w^2", "--count", "100000"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert p.stdout.readline() == "0\n"
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_deep_limit_chain_ends_in_a_ceiling_error():
    # this rank lists stages of w^2's order up to about 500, and stage k
    # reads the order at w*k through a frame per k; a low frame limit makes
    # that too deep within a second
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 150)
    try:
        code, out, err = _run_in_process(["aa", "rank", "--alpha", "w^2+w", "500"])
    finally:
        sys.setrecursionlimit(old)
    assert sys.getrecursionlimit() == old
    assert (code, out) == (1, "")
    assert err.startswith("error: ceiling: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # with the usual limit the same process answers a shallower rank
    assert _run_in_process(["aa", "rank", "--alpha", "w^2+w", "20"]) == (0, "461\n", "")


@pytest.mark.parametrize("point, want", [
    ("w^2*5", "136"), ("w^2*6", "229"), ("w^2*7", "358"), ("w^2*8", "529")])
def test_ranks_at_w3_grow_only_what_they_read(point, want):
    # each order down the chain grows only the stages the read needs; one
    # more stage per level compounds through the nested limits below w^3
    # and meets the frame limit from w^2*6 on.  Grown that way under a
    # raised frame limit, 229 and 358 come out the same; w^2*8 runs out
    # of memory first.
    start = time.perf_counter()
    assert _run_in_process(["aa", "rank", "--alpha", "w^3", point]) == (0, want + "\n", "")
    assert time.perf_counter() - start < 5


def _run_nested(depth, argv):
    return _run_nested(depth - 1, argv) if depth else _run_in_process(argv)


@pytest.mark.parametrize("argv", ["aa nth --alpha w*400 3", "aa rank --alpha w*500 5"])
def test_frame_limit_line_does_not_depend_on_the_callers_depth(argv):
    # Python's RecursionError text names the operation where the limit trips,
    # which changes with the frames the caller already holds
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 150)
    try:
        got = {_run_nested(depth, argv.split()) for depth in (0, 1, 2, 5)}
    finally:
        sys.setrecursionlimit(old)
    assert got == {(1, "", "error: ceiling: limit orders nested too deeply\n")}


def test_a_rank_at_w_900_answers_in_a_fresh_interpreter():
    # a natural's rank at w*k reads the stage ends of the k-1 run orders
    # below it, one frame a level, and each builds lam's order on its first
    # read, so w*900 fits Python's default frame limit; listing each
    # order's first stages off the chain met that limit from w*335 on
    r = subprocess.run([sys.executable, "-m", "ordtower", "aa", "rank", "--alpha", "w*900", "5"],
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "4501\n", "")


_CEILING_AT_W2 = "error: ceiling: block construction at w*2 exceeded 20000 stages\n"


@pytest.mark.parametrize("argv, want", [
    ("aa rank --alpha w*2 w+100000000", None),
    ("aa nth --alpha w*2 100000000", None),
    ("aa rank --alpha w*3 100000", None),
    # the last stages below the ceiling, and the first past it
    ("aa rank --alpha w*2 w+19998", "39996"),
    ("aa rank --alpha w*2 w+19999", None),
    ("aa rank --alpha w*2 19998", "39997"),
    ("aa rank --alpha w*2 19999", None),
    ("aa nth --alpha w*2 39997", "19998"),
    ("aa nth --alpha w*2 39998", None),
    ("aa rank --alpha w*3 19997", "59992"),
    ("aa rank --alpha w*3 19998", None),
])
def test_run_phase_lookups_stop_at_the_stage_ceiling(argv, want):
    # a rank or point past stage 20,000 of w*2's order ends where listing
    # the stages one by one would: at w*2's ceiling, also when asked at w*3
    start = time.perf_counter()
    got = _run_in_process(argv.split())
    assert time.perf_counter() - start < 2
    assert got == ((0, want + "\n", "") if want else (1, "", _CEILING_AT_W2))


# With the stage ceiling lowered to 40: an argv with its index left out, the
# first index, then one outcome per index: an answer, or "-" for the ceiling
# line at w*2.  Reading stage t of a run order needs stage t+j of the order j
# levels down, so over w a read stops by arithmetic exactly where listing the
# stage would.  Over w^2 a read once listed w^2 through block t+d, d run orders
# down, then through block t+1, and a ceiling met in those blocks refused it;
# "-/x" marks such a read, which now reads w^2's rank off its adjusted chain,
# listing none of those blocks, and answers x, its answer under ceiling 80.
# Every other outcome was the same then.
_EDGES_AT_CEILING_40 = """
aa rank --alpha w*2 {}              36: 73 75 77 - - -
aa rank --alpha w*2 w+{}            36: 72 74 76 - - -
aa nth --alpha w*2 {}               75: 37 w+38 38 - - -
aa rank --alpha w*3 {}              35: 106 109 112 - - -
aa rank --alpha w*3 w*2+{}          34: 105 108 111 - - -
aa nth --alpha w*3 {}               111: w*2+36 37 w+38 - - -
aa rank --alpha w*4 {}              34: 137 141 145 - - -
aa rank --alpha w*4 w*3+{}          33: 136 140 144 - - -
aa nth --alpha w*4 {}               145: 36 w+37 w*2+36 - - -
aa rank --alpha w*5 {}              33: 166 171 176 - - -
aa rank --alpha w*5 w*4+{}          32: 165 170 175 - - -
aa nth --alpha w*5 {}               177: w+36 w*2+35 w*3+35 - - -
aa rank --alpha w*6 {}              32: 193 199 205 - - -
aa rank --alpha w*6 w*5+{}          31: 192 198 204 - - -
aa nth --alpha w*6 {}               207: w*2+34 w*3+34 w*4+34 - - -
aa rank --alpha w^2+w {}            15: 271 305 341 -/379 -/419 - -
aa rank --alpha w^2+w w^2+{}        14: 270 304 340 -/378 -/418 - -
aa nth --alpha w^2+w {}             375: w*19+15 w*19+16 w*19+17 -/w^2+17 -/18 -/w+19
aa rank --alpha w^2+w*2 {}          14: 253 286 321 -/358 -/397 -/438 - -
aa rank --alpha w^2+w*2 w^2+w+{}    13: 252 285 320 -/357 -/396 -/437 - -
aa nth --alpha w^2+w*2 {}           354: w*18+15 w*18+16 w^2+16 -/w^2+w+16 -/17 -/w+18
aa nth --alpha w^2+w*2 {}           392: -/w*19+15 -/w*19+16 -/w*19+17 -/w^2+17 -/w^2+w+17 -/18
aa rank --alpha w^2+w*3 {}          13: 235 267 301 -/337 -/375 -/415 -/457 - -
aa rank --alpha w^2+w*3 w^2+w*2+{}  12: 234 266 300 -/336 -/374 -/414 -/456 - -
aa nth --alpha w^2+w*3 {}           333: w*17+15 w^2+15 w^2+w+15 -/w^2+w*2+15 -/16 -/w+17
aa nth --alpha w^2+w*3 {}           409: -/w*19+15 -/w*19+16 -/w*19+17 -/w^2+17 -/w^2+w+17 -/w^2+w*2+17
"""


@pytest.mark.parametrize("argv", [
    "aa rank --alpha w^2+w 19998",
    "aa rank --alpha w^2+w w^2+19997",
    "aa rank --alpha w^2+w*3 w^2+w*2+19996",
])
def test_a_read_past_a_listed_orders_ceiling_is_refused_at_once(argv):
    # listing the stage these points end needs w^2's block 20,000, so the
    # read is refused by arithmetic; listing w^2 block by block to find out
    # would take over 10 s and 400 MB and meet the frame limit first
    start = time.perf_counter()
    got = _run_in_process(argv.split())
    assert time.perf_counter() - start < 2
    assert got == (1, "", "error: ceiling: block construction at w^2 exceeded 20000 stages\n")


def test_run_phase_reads_stop_where_listing_does_at_a_lowered_ceiling(monkeypatch):
    # the gate reads tower.CEILING when it runs: a copy taken at import
    # would miss this patch and answer past the ceiling
    monkeypatch.setattr(tower, "CEILING", 40)
    got, want = [], []
    for line in _EDGES_AT_CEILING_40.strip().splitlines():
        head, outcomes = line.split(": ")
        fmt, start = head.rsplit(None, 1)
        for k, outcome in enumerate(outcomes.split(), int(start)):
            argv = fmt.format(k)
            got.append((argv, *_run_in_process(argv.split())))
            answer = outcome.removeprefix("-/")
            want.append((argv, 0, answer + "\n", "") if answer != "-" else
                        (argv, 1, "", _CEILING_AT_W2.replace("20000", "40")))
    assert got == want


_RUN_AND_REPORT_RSS = """
import re, sys
from ordtower import cli
code = cli.run(sys.argv[1:])
# VmHWM is this process's own peak RSS; ru_maxrss would also count the
# parent's RSS at the fork, which the pytest process can make the larger
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1), file=sys.stderr)
sys.exit(code)
"""


def test_deep_aa_rank_stays_small():
    # the limit orders below w^2+w hold about 2.4 million points; read from
    # run formulas over int arrays, not listed with a rank entry each, they
    # keep this call near 24 MiB (21 MiB on Python 3.10), where a rank entry
    # per point took about 190 MB
    r = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_RSS,
                        "aa", "rank", "--alpha", "w^2+w", "150"],
                       capture_output=True, text=True, timeout=120)
    assert (r.returncode, r.stdout) == (0, "22951\n")
    assert int(r.stderr) < 45 * 1024


@pytest.mark.parametrize("argv, want", [
    ("aa rank --alpha w^2 w*3+900", "811804"),
    ("aa rank --alpha w^2+w 800", "642401"),
])
def test_deep_reads_at_w2_stay_under_200_mib(argv, want):
    # each needs w^2's ranks of points in its blocks 800 and up: read off its
    # adjusted chain they keep under 120 MiB, where listing those blocks took
    # 363 and 267 MiB
    r = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_RSS, *argv.split()],
                       capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stdout) == (0, want + "\n")
    assert int(r.stderr) < 200 * 1024


def test_malformed_window_files_are_domain_errors(tmp_path):
    bad = {"seed-not-a-number.json": '{"bound": "w", "seed": "abc", "members": []}',
           "seed-out-of-range.json": '{"bound": "w", "seed": 1e400, "members": []}',
           "seed-fraction.json": '{"bound": "w", "seed": 1.5, "members": [["1", "2"]]}',
           "seed-bool.json": '{"bound": "w", "seed": true, "members": [["1", "2"]]}',
           "member-string.json": '{"bound": "w", "seed": 1, "members": ["12", "w"]}'}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "binary.json").write_bytes(bytes(range(256)))
    for name in [*bad, "binary.json"]:
        code, out, err = _run_in_process(["vc", "dim", "--window", str(tmp_path / name)])
        assert (code, out) == (1, ""), name
        assert err.startswith("error: domain: ") and err.count("\n") == 1, name


def _sample_argv(words, positionals):
    # a value each positional and required option accepts at parse time
    argv = list(words)
    for name, kw in positionals:
        argv += [name, "1"] if name.startswith("--") else [kw.get("choices", ["1"])[0]]
    return argv


def test_every_command_has_help():
    for words in cli._COMMANDS:
        code, out, err = _run_in_process([*words, "--help"])
        assert (code, err) == (0, ""), words
        assert out.startswith("usage: ordtower " + " ".join(words)), words


def test_options_a_command_does_not_read_are_usage_errors():
    parser = cli._build_parser()
    for words, (_, positionals, options) in cli._COMMANDS.items():
        argv = _sample_argv(words, positionals)
        parser.parse_args(argv)  # the argv is valid without the extra option
        for name in cli._OPTIONS.keys() - options.keys():
            code, out, err = _run_in_process([*argv, "--" + name, "1"])
            assert (code, out) == (2, ""), (words, name)
            assert err.startswith("usage: ordtower "), (words, name)
            assert f"unrecognized arguments: --{name} 1" in err, (words, name)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("ordtower ")]
    assert len(examples) > 20
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        code, out, err = _run_in_process(argv)
        assert (code, err) == (0, ""), argv
        if target:
            (tmp_path / target).write_text(out)
