"""Every command's bytes, pinned: exit code, stdout and the first stderr line.

Each leaf runs once in text and once with ``--output json`` (``vc shatter``
prints only JSON), once with ``--help``, and the groups each end in one
error.  The digests were taken from the CLI before its handlers were
folded into the command table, so any change to what a command prints
turns one of them red.  The ``--help`` digests of the leaves that took
``--cap`` were taken again once that option was removed.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from ordtower import cli

# a fixed window for the ``--window FILE`` reads; its members need not be
# closed, the analytics take any finite sets
_WINDOW_JSON = ('{"bound": "w^2", "seed": 7, "members": '
                '[["0"], ["0", "1"], ["1", "w"], ["0", "w", "w+1"], ["2", "w*2"]]}')

_PINS = {
    # ord
    "ord cmp w+1 w*2": "219aa0b20db581ba",
    "ord cmp w+1 w*2 --output json": "647ddf3cadc59afa",
    "ord add w*2+1 w": "282b832ac5c34d4c",
    "ord add w*2+1 w --output json": "e35a9b66c2d98b44",
    "ord fund w^2 3": "282b832ac5c34d4c",
    "ord fund w^2 3 --output json": "61e80fe3ae4742fa",
    "ord enum w+2 1": "f574e3717c34074b",
    "ord enum w+2 1 --output json": "9a8ba48647be6beb",
    "ord enum w+2 --count 3": "40095de0e8144210",
    "ord enum w+2 --count 3 --output json": "13df01eba5071894",
    "ord enum w+2 --count 0": "b0efbbc43054beee",
    "ord enum w+2 --count 0 --output json": "52b63d0da4a4e988",
    # a successor's top points answer at any depth: w*20001, then three lines
    "ord enum 'w*20001+3' 2": "6e09dc466f0a4bd6",
    "ord enum 'w*20001+3' --count 3": "58c3671a7d2a0028",
    # below them the ceiling names the eta asked for, not its limit: error:
    # ceiling: enumeration below w*20001+3 exceeded 20000 descent steps
    "ord enum 'w*20001+3' 3": "2b07545b7355f530",
    "ord enum 'w*20001+3' --count 4": "2b07545b7355f530",
    "ord parse w^1*1+0": "f574e3717c34074b",
    "ord parse w^1*1+0 --output json": "3044b3bb1bdb110c",
    "ord fund 1 1": "cdb265b9f4fae44c",
    "ord parse w^^": "72dd02eb799dc53e",
    # tower
    "tower rank --alpha w+1 w": "93ae3b536c740e24",
    "tower rank --alpha w+1 w --output json": "929801171b69a4b1",
    "tower nth --alpha w*2 5": "7576410f3b85c88e",
    "tower nth --alpha w*2 5 --output json": "926f7110cec296f6",
    # error: domain: rank index must be >= 0, got -1
    "tower nth --alpha 0 -1": "116f309d645947e8",
    "tower nth --alpha w+3 -1": "116f309d645947e8",
    "tower close --alpha w 2,5": "8efad31039a6a36a",
    "tower close --alpha w 2,5 --output json": "2b010fbfbf5dc7f8",
    "tower close --alpha w ''": "d15324a4af6e9afb",
    "tower close --alpha w '' --output json": "f0bc1c4d387626ba",
    "tower turnstile --alpha 9 2 5": "1f7697a92a51951d",
    "tower turnstile --alpha 9 2 5 --output json": "a75935bd08a23fe9",
    "tower blocks --alpha w 3": "4e9ec8bb76e6e004",
    "tower blocks --alpha w 3 --output json": "b21e3a482ee66f6d",
    "tower rank --alpha w w+1": "1636bc0cd6a98440",
    # family
    "family extend 2": "4e9ec8bb76e6e004",
    "family extend 2 --output json": "b68223c09ab0f7d7",
    # error: cap-exceeded: the largest point w^3 is not below the cap w^3
    "family extend w^3": "918edeaf4474e1ff",
    "family extend 0,w^3": "918edeaf4474e1ff",
    "family check 0,2": "9cd4284840ea31af",
    "family check 0,1,2 --output json": "59ca5659c8479517",
    "family ladder 3 --bound w^2": "dccf297817546199",
    "family ladder 3 --bound w^2 --output json": "7896dfc794e51ffe",
    "family window --bound w^2 --count 12 --seed 1": "3e0d11a19c668c42",
    "family window --bound w^2 --count 12 --seed 1 --output json": "e9209b5ffde178fe",
    "family window --window {window}": "7c4386b93cfe4d56",
    "family entails 0 w --bound w --count 5": "1f3568b8716db496",
    "family entails 0 w --bound w --count 5 --output json": "c357579b0d41ef4d",
    "family entails 0 0 --bound w --count 5": "e229768ab618574f",
    "family entails 0 0 --bound w --count 5 --output json": "53340939cd68425a",
    "family ladder -1": "4659aed2f1586050",
    # vc
    "vc dim 0,1,2,3,4 --bound w^2 --count 12": "63400b7c6c5bc09f",
    "vc dim 0,1,2,3,4 --bound w^2 --count 12 --output json": "2401239b7c6e8dfc",
    "vc dim --window {window}": "7576410f3b85c88e",
    "vc shatter 2,w": "3dbd0479837a0a0b",
    "vc shatter 0 --bound w --count 5": "f659e14e7019fddb",
    "vc hunt 2 --bound w^2 --count 12": "f1af2562f94e9080",
    "vc hunt 2 --bound w^2 --count 12 --output json": "f32a38cf0c28fd6a",
    "vc hunt 2 --bound w --count 10": "79dc33cb6ff1f8ff",
    "vc hunt 2 --bound w --count 10 --output json": "bd308ae20d681e38",
    "vc sauer 2 --bound w^2 --count 12": "0d969e3287ac8c65",
    "vc sauer 2 --bound w^2 --count 12 --output json": "0a1d32a90c2efbdd",
    "vc cond4 1,2,5": "1f7697a92a51951d",
    "vc cond4 1,2,5 --output json": "a75935bd08a23fe9",
    "vc rmk 0 1 5,3 --bound w^2 --count 12": "bf51d7db4d6487f0",
    "vc rmk 0 1 5,3 --bound w^2 --count 12 --output json": "93e1a49023887159",
    "vc cond4 1,2": "0cc5fe3958dc4737",
    # aa
    "aa rank --alpha w*2 5": "4670ba9c8b2c7c8f",
    "aa rank --alpha w*2 5 --output json": "f3d212e381788090",
    "aa nth --alpha w*2 0": "f574e3717c34074b",
    "aa nth --alpha w*2 0 --output json": "9a8ba48647be6beb",
    "aa exceptions w*2 w^2": "f37555055293bce7",
    "aa exceptions w*2 w^2 --output json": "2eb21a1356259311",
    "aa exceptions w w*2": "775963deecefdf58",
    "aa exceptions w w*2 --output json": "ca65d77ffe360179",
    "aa verify w*2 w^2 --count 200 --seed 4": "0df5dd372000d305",
    "aa verify w*2 w^2 --count 200 --seed 4 --output json": "437726d59f0ccb17",
    "aa nth --alpha 3 0": "1da16744689aa6c0",
    # verify
    "verify tower": "ebb9dcadddb1868d",
    "verify tower --output json": "8c93881591c65059",
    "verify vc --bound w": "605d9145fba13ff3",
    "verify vc --bound w --output json": "509e36d859d4f564",
    "verify family --bound 1": "a443aa270b729fa4",
    # usage errors
    "ord cmp w": "9a2b9ae4f5581528",
    "tower rank --alpha w 3 --seed 5": "107f9ec8d34dfb90",
    # help
    "ord cmp --help": "8598209e755edc5b",
    "ord add --help": "76121af45711a32d",
    "ord fund --help": "ee58774afa73cdbb",
    "ord enum --help": "141c6ae2334b030d",
    "ord parse --help": "49b0aed1eb73539e",
    "tower rank --help": "96bba0844e443ea9",
    "tower nth --help": "2231c9262debf6bf",
    "tower close --help": "8d78bdfda3cb1aaf",
    "tower turnstile --help": "d6c8fa77fa22323b",
    "tower blocks --help": "0b27a80082d7734a",
    "family extend --help": "5b7f649d59359a65",
    "family check --help": "a8f15ac783f5347c",
    "family ladder --help": "e005d1e0f4aa1bf9",
    "family window --help": "c2aaa6f1a8c80640",
    "family entails --help": "fb72c58c396126e9",
    "vc dim --help": "04fb898909d3bb91",
    "vc shatter --help": "c9a81aec98a57707",
    "vc hunt --help": "84e718a15b635ec0",
    "vc sauer --help": "ca114b18d2a3933c",
    "vc cond4 --help": "358f14aa7e541094",
    "vc rmk --help": "5e5cfb329ea30f60",
    "aa rank --help": "53c81ff25f605633",
    "aa nth --help": "a56608471ebe0421",
    "aa exceptions --help": "2f288c018648a70f",
    "aa verify --help": "d033146844c10492",
    "verify --help": "8c3cb9b5319d1f34",
}


def _digest(code, out: str, err: str) -> str:
    first = err.split("\n", 1)[0]
    return hashlib.sha256(f"{code}\0{out}\0{first}".encode()).hexdigest()[:16]


def run_pinned(line: str, window_path: str) -> str:
    argv = [a.replace("{window}", window_path) for a in shlex.split(line)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return _digest(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def window_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "win.json"
    path.write_text(_WINDOW_JSON)
    return str(path)


@pytest.mark.parametrize("line", list(_PINS))
def test_command_bytes_are_pinned(line, window_path, monkeypatch):
    # argparse wraps usage and help text to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run_pinned(line, window_path) == _PINS[line]


def test_every_leaf_is_pinned_in_text_and_json():
    for words in cli._COMMANDS:
        head = " ".join(words) + " "
        lines = [line for line in _PINS if line.startswith(head)]
        assert any(line.endswith(" --help") for line in lines), words
        runs = [line for line in lines if not line.endswith(" --help")]
        if words != ("vc", "shatter"):
            assert any(line.endswith(" --output json") for line in runs), words
        assert any("--output" not in line for line in runs), words
