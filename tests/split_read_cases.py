"""The two-process read of ``det``, checked where it can run.

Usage: python -m pytest tests/split_read_cases.py

``split_read`` forks only in a process that runs one thread, and the
Tier-1 process cannot: numpy, which other test modules import, starts a
BLAS thread pool.  So this module has no ``test_`` prefix and pytest
does not collect it in Tier-1; ``test_cli.test_split_read_cases_pass``
runs it in a child pytest that imports no numpy.  Every test forces the
split on by setting the threshold to 0 and spies on ``os.fork``; "off"
is the same call with one usable CPU, so that every document is read in
one process.  After every call no child of this process is left.
"""

import contextlib
import io
import json
import os
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessenbergian.cli as cli
import hessenbergian.split_read as split_read
from hessenbergian.formats import (dump_text, matrix_from_json,
                                   matrix_to_json, parse_text)
from hessenbergian.matrix import HessenbergMatrix, row_length


def test_this_process_runs_one_thread():
    # every other test here needs it, or the split never forks
    assert split_read._threads() == 1
    assert "numpy" not in sys.modules


class Fork:
    """os.fork, counting the children it makes in this process."""

    def __init__(self):
        self.calls = 0
        self._fork = os.fork

    def __call__(self):
        self.calls += 1
        return self._fork()


@pytest.fixture
def fork(monkeypatch):
    spy = Fork()
    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(cli, "_SPLIT_READ_CHARS", 0)
    return spy


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    no_child_left()
    return code, out.getvalue(), err.getvalue()


def one_cpu(monkeypatch):
    monkeypatch.setattr(split_read, "_usable_cpus", lambda: 1)


def matrix_text(order: int) -> str:
    return dump_text(matrix_to_json(HessenbergMatrix(order, [
        [complex(i + 0.5, -j / 3) for j in range(row_length(order, i))]
        for i in range(1, order + 1)])))


def second_half(text: str, old: str, new: str) -> str:
    # the first `old` past the middle replaced by `new`
    at = text.index(old, len(text) // 2)
    return text[:at] + new + text[at + len(old):]


def first_half(text: str, old: str, new: str) -> str:
    return text.replace(old, new, 1)


# one value of every number matrix_text writes, and the first pair of
# its rows past the middle
_BASE = matrix_text(12)
_PAIR = "[11.5,-2.0]"
_LIMIT = "9" * 5000  # past the default int/str digit limit of 4300



def rows_under_two_keys() -> str:
    # rows 1-6 under "rows", rows 7-12 under "x" after a row so long that
    # the middle falls inside it: the cut lands right before row 7
    rows = json.loads(_BASE)["rows"]
    text = dump_text({"order": 12, "rows": rows[:6], "x": rows[6:]})
    long_row = "[" + "0," * len(text) + "[0,0]],"
    at = text.index('"x":[') + len('"x":[')
    return text[:at] + long_row + text[at:]


# name, text, extra argv, whether the split forks on it
_LOOKALIKES = [
    ("canonical", _BASE, [], True),
    ("NaN past the middle", second_half(_BASE, "11.5", "NaN"), [], True),
    ("Infinity past the middle", second_half(_BASE, "11.5", "-Infinity"),
     [], True),
    ("1e400 before the middle", first_half(_BASE, "1.5", "1e400"), [], True),
    ("1e400 past the middle", second_half(_BASE, "11.5", "1e400"), [], True),
    ("a true leaf", second_half(_BASE, "11.5", "true"), [], True),
    ("an exact quad past the middle", second_half(_BASE, _PAIR, "[1,2,3,4]"),
     [], True),
    ("a 3-number scalar", second_half(_BASE, _PAIR, "[1.0,2.0,3.0]"), [],
     True),
    ("a string that holds the row boundary",
     second_half(_BASE, _PAIR, '"]],[["'), [], True),
    ("a key after rows", _BASE[:-1] + ',"x":[[[1]],[[2]]]}', [], True),
    ("a key after rows past the middle",
     _BASE[:-1] + ',"x":' + _BASE[_BASE.index("[[["):-1] + "}", [], True),
    ("rows 7-12 under another key", rows_under_two_keys(), [], True),
    ("a duplicate rows", _BASE.replace('"rows":', '"rows":[[[1,2]]],"rows":'),
     [], True),
    ("a duplicate order", _BASE[:-1] + ',"order":12.5,"rows":[[[1]],[[2]]]}',
     [], True),
    ("an exact document", dump_text(matrix_to_json(HessenbergMatrix(12, [
        [Fraction(i, j + 1) for j in range(row_length(12, i))]
        for i in range(1, 13)]))), [], True),
    ("reordered keys", json.dumps({"rows": json.loads(_BASE)["rows"],
                                   "order": 12}, separators=(",", ":")),
     [], False),
    ("a trailing newline", _BASE + "\n", [], True),
    ("an int past the digit limit before the middle",
     first_half(_BASE, "1.5", _LIMIT), [], True),
    ("an int past the digit limit past the middle",
     second_half(_BASE, "11.5", _LIMIT), [], True),
    ("a short row past the middle", second_half(_BASE, _PAIR + ",", ""), [],
     True),
    ("a wrong order", _BASE.replace('"order":12', '"order":13'), [], True),
    ("read as exact", _BASE, ["--backend", "exact"], False),
    ("read as float", _BASE, ["--backend", "float"], True),
]


@pytest.mark.parametrize("name, text, extra, forks", _LOOKALIKES,
                         ids=[case[0] for case in _LOOKALIKES])
def test_lookalikes_print_what_one_process_prints(tmp_path, monkeypatch, fork,
                                                  name, text, extra, forks):
    path = tmp_path / "m.json"
    path.write_text(text)
    argv = ["det", str(path), *extra]
    split = run(argv)
    assert fork.calls == forks
    one_cpu(monkeypatch)
    assert run(argv) == split
    assert fork.calls == forks


def test_a_canonical_document_is_read_without_the_one_process_path(
        tmp_path, monkeypatch, fork):
    path = tmp_path / "m.json"
    path.write_text(matrix_text(60))

    def refuse(*args):
        raise AssertionError("the one-process read ran")

    monkeypatch.setattr("hessenbergian.formats.matrix_from_json", refuse)
    code, out, err = run(["det", str(path)])
    assert (code, err, fork.calls) == (0, "", 1)
    assert json.loads(out)["backend"] == "float"


# a part: any finite double (signed zeros included) or an integer
_PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0]),
                   st.integers(-2 ** 64, 2 ** 64))
# a scalar: a pair, or a bare integer, up to past 2**53
_SCALARS = st.one_of(st.lists(_PARTS, min_size=2, max_size=2),
                     st.integers(-2 ** 64, 2 ** 64),
                     st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 1]))


@st.composite
def documents(draw):
    """matrix_to_json of a float matrix, some scalars replaced."""
    order = draw(st.integers(2, 60))
    doc = matrix_to_json(HessenbergMatrix(order, [
        [complex(i, -j) for j in range(row_length(order, i))]
        for i in range(1, order + 1)]))
    rows = doc["rows"]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, order - 1))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_SCALARS)
    return dump_text(doc)


def parts(matrix):
    return [[(type(z), repr(z.real), repr(z.imag)) for z in row]
            for row in matrix.rows]


@given(documents())
@settings(deadline=None, max_examples=60)
def test_the_split_builds_the_rows_one_process_builds(tmp_path_factory,
                                                       text):
    path = tmp_path_factory.mktemp("doc") / "m.json"
    path.write_text(text)
    built = []

    def kernel(method, args):
        return lambda matrix: built.append(matrix) or 0j

    spy = Fork()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", spy)
        mp.setattr(cli, "_SPLIT_READ_CHARS", 0)
        mp.setattr(cli, "_det_kernel", kernel)
        code, out, err = run(["det", str(path)])
    assert (code, err) == (0, "")
    # the canonical shape, with a row boundary past the middle
    canonical = r'\{"order":\d+,"rows":\[\[\[.*\]\]\]\}'
    assert spy.calls == (re.fullmatch(canonical, text) is not None
                         and text.find("]],[[", len(text) // 2) >= 0)
    want, backend = matrix_from_json(parse_text(text))
    assert json.loads(out)["backend"] == backend
    assert built[0].order == want.order
    assert parts(built[0]) == parts(want)


def child_fails(monkeypatch, how):
    # split_read's _require_rows, failing only in the child
    parent, require_rows = os.getpid(), split_read._require_rows

    def require(rows, what):
        if os.getpid() != parent:
            how()
        return require_rows(rows, what)

    monkeypatch.setattr(split_read, "_require_rows", require)


def child_raises():
    raise RuntimeError("the child fails")


def child_exits():
    os._exit(1)


@pytest.mark.parametrize("how", [child_raises, child_exits])
def test_a_failed_child_falls_back(tmp_path, monkeypatch, fork, how):
    path = tmp_path / "m.json"
    path.write_text(_BASE)
    with monkeypatch.context() as mp:
        one_cpu(mp)
        want = run(["det", str(path)])
    child_fails(monkeypatch, how)
    assert run(["det", str(path)]) == want
    assert fork.calls == 1


def test_an_interrupt_reaps_the_child(tmp_path, monkeypatch, fork):
    # the interrupt comes while this process parses the head, the child
    # forked and perhaps still running; run() checks no child is left
    path = tmp_path / "m.json"
    path.write_text(_BASE)
    parent = os.getpid()

    def interrupt(text):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_text(text)

    monkeypatch.setattr(split_read, "parse_text", interrupt)
    assert run(["det", str(path)]) == (130, "", "error: interrupted\n")
    assert fork.calls == 1


def test_no_fork_with_one_cpu(tmp_path, monkeypatch, fork):
    path = tmp_path / "m.json"
    path.write_text(_BASE)
    one_cpu(monkeypatch)
    assert run(["det", str(path)])[0] == 0
    assert fork.calls == 0


def test_no_fork_beside_a_second_thread(tmp_path, fork):
    path = tmp_path / "m.json"
    path.write_text(_BASE)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert run(["det", str(path)])[0] == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert fork.calls == 0


def test_no_fork_without_os_fork(tmp_path, monkeypatch, fork):
    path = tmp_path / "m.json"
    path.write_text(_BASE)
    want = run(["det", str(path)])
    monkeypatch.delattr(os, "fork")
    assert run(["det", str(path)]) == want
    assert fork.calls == 1  # the first run only
