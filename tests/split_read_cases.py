"""The two-process determinant of ``det``, checked where it can run.

Usage: python -m pytest tests/split_read_cases.py

``split_read`` forks only in a process that runs one thread, and the
Tier-1 process cannot: numpy, which other test modules import, starts a
BLAS thread pool.  So this module has no ``test_`` prefix and pytest
does not collect it in Tier-1; ``test_cli.test_split_read_cases_pass``
runs it in a child pytest that imports no numpy.  Every command test
forces the split on by setting the threshold to 0 and spies on
``os.fork``; "off" is the same call with one usable CPU, so that every
document is read in one process.  After every call no child of this
process is left and no file descriptor is left open.  One property
checks the loop that both processes run: resumed at any row, from the
state the child sends, it gives the prefixes of one pass; another cuts
the file into chunks of 7 bytes and up, so that chunk edges fall inside
numbers and inside row boundaries and rows span several chunks.  The
last test measures the peak memory of the command in a child process.
"""

import contextlib
import io
import json
import marshal
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessenbergian.cli as cli
import hessenbergian.split_read as split_read
from hessenbergian.determinants import _float_prefixes, det_recurrence
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


def open_fds() -> int:
    return len(os.listdir("/dev/fd"))


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    fds = open_fds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    no_child_left()
    assert open_fds() == fds
    return code, out.getvalue(), err.getvalue()


def one_cpu(monkeypatch):
    monkeypatch.setattr(split_read, "_usable_cpus", lambda: 1)


def matrix_text(order: int) -> str:
    return dump_text(matrix_to_json(HessenbergMatrix(order, [
        [complex(i + 0.5, -j / 3) for j in range(row_length(order, i))]
        for i in range(1, order + 1)])))


def second_half(text, old, new):
    # the first `old` past the middle replaced by `new`, in str or bytes
    at = text.index(old, len(text) // 2)
    return text[:at] + new + text[at + len(old):]


def first_half(text: str, old: str, new: str) -> str:
    return text.replace(old, new, 1)


def the_cut(text: str) -> int:
    # where the split cuts an ASCII text with no trailing whitespace
    return text.find("]],[[", int(len(text) * split_read._HEAD_SHARE))


def past_the_cut(text: str, old: str, new: str) -> str:
    # the first `old` after the row boundary where the split cuts
    at = text.index(old, the_cut(text) + len("]],[["))
    return text[:at] + new + text[at + len(old):]


def before_the_cut(text: str, new: str) -> str:
    # `new` inside the last number of the head, in the window the
    # split reads to find its cut
    at = the_cut(text) - 1
    return text[:at] + new + text[at:]


# one value of every number matrix_text writes, and the first pair of
# its rows past the middle
_BASE = matrix_text(12)
_PAIR = "[11.5,-2.0]"
_LIMIT = "9" * 5000  # past the default int/str digit limit of 4300
_EXACT = dump_text(matrix_to_json(HessenbergMatrix(12, [
    [Fraction(i, j + 1) for j in range(row_length(12, i))]
    for i in range(1, 13)])))


def int_head() -> str:
    # the first rows of ints past 2**53, each a bare int but the first
    # and the last, int pairs: the canonical start and a row boundary
    # need lists there; as many rows as leave no float before the cut
    rows = json.loads(_BASE)["rows"]
    for i in range(11):
        ints = [2 ** 53 + 1 + 3 * i + j for j in range(i + 2)]
        rows[i] = [[ints[0], 0], *ints[1:-1], [ints[-1], 0]]
        text = dump_text({"order": 12, "rows": rows})
        if "." not in text[:the_cut(text)]:
            return text
    raise AssertionError("a float row before the cut")


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
    ("an exact document", _EXACT, [], True),
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
    ("a short row before the middle", first_half(_BASE, "[2.5,0.0],", ""),
     [], True),
    ("a wrong order", _BASE.replace('"order":12', '"order":13'), [], True),
    ("an extra last row",
     _BASE[:-2] + _BASE[_BASE.rindex("]],[[") + 2:-2] + "]}", [], True),
    ("an order with a leading zero",
     _BASE.replace('"order":12', '"order":012'), [], False),
    ("whitespace between two rows past the cut",
     past_the_cut(_BASE, "]],[[", "]], [["), [], True),
    ("a head of bare ints, its first float pair in the tail", int_head(),
     [], True),
    # the pair rule refuses these chunks, and one process reads the
    # whole file
    ("a pair regrouped past the middle",
     second_half(_BASE, _PAIR + ",[", "[11.5],[-2.0,"), [], True),
    ("an empty part past the middle", second_half(_BASE, "11.5", ""), [],
     True),
    ("+1.0 past the middle", second_half(_BASE, "11.5", "+1.0"), [], True),
    ("01.5 past the middle", second_half(_BASE, "11.5", "01.5"), [], True),
    (".5 past the middle", second_half(_BASE, "11.5", ".5"), [], True),
    ("1. past the middle", second_half(_BASE, "11.5", "1."), [], True),
    ("a lone minus past the middle", second_half(_BASE, "11.5", "-"), [],
     True),
    ("a 400-digit int in a pair past the middle",
     second_half(_BASE, "11.5", "9" * 400), [], True),
    ("a space inside a pair past the middle",
     second_half(_BASE, "11.5,", "11.5, "), [], True),
    ("a number between a pair and its comma",
     second_half(_BASE, _PAIR + ",", _PAIR + "5,"), [], True),
    ("a number before a pair whose first part is empty",
     second_half(_BASE, ",[11.5,", ",7[,"), [], True),
    ("a number after a pair whose second part is empty",
     second_half(_BASE, _PAIR + ",", "[11.5,]7,"), [], True),
    # the split reads bytes, and takes ASCII only
    ("a non-ASCII character before the middle",
     first_half(_BASE, "1.5", "1.\u00e95"), [], True),
    ("a byte that is not UTF-8 past the middle",
     second_half(_BASE.encode(), b"11.5", b"11.\xff5"), [], True),
    ("a non-ASCII character in the cut window",
     before_the_cut(_BASE, "\u00e9"), [], True),
    ("a UTF-8 byte order mark", "\ufeff" + _BASE, [], False),
    ("trailing whitespace longer than the end window",
     _BASE + " \t\r\n" * split_read._EDGE, [], False),
    ("a file cut short", _BASE[:-1], [], False),
    ("a last scalar that is a bare int",
     _BASE[:_BASE.rindex(",[")] + ",7]]}", [], False),
    ("read as exact", _BASE, ["--backend", "exact"], False),
    ("read as float", _BASE, ["--backend", "float"], True),
    # only the recurrence runs on two cores; the exact closed form and a
    # capped float one load no numpy, which would start a thread pool
    ("the closed form", _EXACT, ["--method", "closed"], False),
    ("the closed form past its cap", _BASE,
     ["--method", "closed", "--closed-form-cap", "11"], False),
    ("the Leibniz oracle", _BASE,
     ["--method", "leibniz", "--oracle-cap", "12"], False),
]


@pytest.mark.parametrize("name, text, extra, forks", _LOOKALIKES,
                         ids=[case[0] for case in _LOOKALIKES])
def test_lookalikes_print_what_one_process_prints(tmp_path, monkeypatch, fork,
                                                  name, text, extra, forks):
    path = tmp_path / "m.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
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

    # nor is the whole file read into one text
    monkeypatch.setattr(cli, "_read", refuse)
    monkeypatch.setattr("hessenbergian.formats.matrix_from_json", refuse)
    code, out, err = run(["det", str(path)])
    assert (code, err, fork.calls) == (0, "", 1)
    assert json.loads(out)["backend"] == "float"


@pytest.mark.parametrize("where", [None, "head", "tail"])
def test_a_canonical_file_is_read_by_the_pair_rule(tmp_path, monkeypatch,
                                                   where):
    # the pair rule is the one decoder of either process: a space inside
    # a pair of the head or of the tail, which the one-process read
    # takes, makes the split return None, and the child is reaped
    text = matrix_text(60)
    if where == "head":
        text = first_half(text, "1.5,", "1.5, ")
    elif where == "tail":
        text = past_the_cut(text, ".5,", ".5, ")
    path = tmp_path / "m.json"
    path.write_text(text)
    want = repr(det_recurrence(matrix_from_json(parse_text(text))[0]))
    monkeypatch.setattr(split_read, "_CHUNK", 512)
    fds = open_fds()
    value = split_read.det_float(str(path), None)
    no_child_left()
    assert open_fds() == fds
    assert repr(value) == (want if where is None else "None")


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


def printed(out: str):
    # the backend and the repr of both parts of the printed value
    if not out:
        return None
    doc = json.loads(out)
    return doc["backend"], [repr(part) for part in doc["value"]]


@given(documents())
@settings(deadline=None, max_examples=60)
def test_the_split_prints_what_one_process_prints(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("doc") / "m.json"
    path.write_text(text)
    argv = ["det", str(path)]
    values, det_float = [], split_read.det_float

    def spy_det(*args):
        values.append(det_float(*args))
        return values[-1]

    spy = Fork()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", spy)
        mp.setattr(cli, "_SPLIT_READ_CHARS", 0)
        mp.setattr(split_read, "det_float", spy_det)
        code, out, err = run(argv)
        forks = spy.calls
        one_cpu(mp)
        one = run(argv)
    assert (code, err, printed(out)) == (one[0], one[2], printed(one[1]))
    # the canonical shape, with a row boundary past the cut
    canonical = r'\{"order":\d+,"rows":\[\[\[.*\]\]\]\}'
    cut = int(len(text) * split_read._HEAD_SHARE)
    assert forks == (re.fullmatch(canonical, text) is not None
                     and text.find("]],[[", cut) >= 0)
    # each document is a well-formed float one, so where the split forks
    # it computes the value, the recurrence's on the one-process matrix,
    # if every scalar is a pair of floats, which the pair rule reads,
    # and else leaves the document to one process
    if forks:
        pairs = all(type(v) is list and list(map(type, v)) == [float, float]
                    for row in json.loads(text)["rows"] for v in row)
        want = det_recurrence(matrix_from_json(parse_text(text))[0])
        assert repr(values[0]) == (repr(want) if pairs else "None")


# an entry: any finite complex, overflow to inf and nan included, or 0j
_ENTRIES = st.one_of(st.complex_numbers(allow_nan=False, allow_infinity=False),
                     st.just(0j))


@st.composite
def float_rows(draw):
    """The rows of a float matrix of order 1 to 16."""
    order = draw(st.integers(1, 16))
    return [tuple(draw(st.lists(_ENTRIES, min_size=k, max_size=k)))
            for k in (row_length(order, i) for i in range(1, order + 1))]


def reprs(values):
    return [repr(v) for v in values]


@given(float_rows())
@settings(deadline=None)
def test_the_recurrence_resumed_at_any_cut_gives_one_pass(rows):
    whole = [1 + 0j]
    _float_prefixes(rows, [], whole)
    for cut in range(len(rows) + 1):
        head = [1 + 0j]
        state = _float_prefixes(rows[:cut], [], head)
        q, prev = marshal.loads(marshal.dumps(state))  # as the child sends it
        tail = [head[-1]]
        _float_prefixes(rows[cut:], q, tail, prev)
        assert reprs(head + tail[1:]) == reprs(whole)


def fails_in(monkeypatch, where, how):
    # split_read's _row_chunks, failing only in the child or only here
    parent, row_chunks = os.getpid(), split_read._row_chunks

    def rows(*args):
        if (os.getpid() == parent) == (where == "parent"):
            how()
        return row_chunks(*args)

    monkeypatch.setattr(split_read, "_row_chunks", rows)


def raises():
    raise RuntimeError("the read fails")


def exits():
    os._exit(1)


@pytest.mark.parametrize("where, how", [("child", raises), ("child", exits),
                                        ("parent", raises)])
def test_a_failure_falls_back_after_one_fork(tmp_path, monkeypatch, fork,
                                             where, how):
    path = tmp_path / "m.json"
    path.write_text(_BASE)
    with monkeypatch.context() as mp:
        one_cpu(mp)
        want = run(["det", str(path)])
    fails_in(monkeypatch, where, how)
    assert run(["det", str(path)]) == want
    assert fork.calls == 1


def test_an_interrupt_reaps_the_child(tmp_path, monkeypatch, fork):
    # the interrupt comes while this process reads the tail, the child
    # forked and perhaps still running; run() checks no child is left
    path = tmp_path / "m.json"
    path.write_text(_BASE)

    def interrupt():
        raise KeyboardInterrupt

    fails_in(monkeypatch, "parent", interrupt)
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


def random_part(rng: Random) -> float:
    # a double of any length in the text: signed zeros, small ints, and
    # mantissas of up to 17 digits over the whole exponent range
    return rng.choice((-0.0, 0.0, float(rng.randint(-9, 9)), rng.random(),
                       rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)))


@given(st.integers(3, 24), st.integers(0, 2 ** 32),
       st.one_of(st.integers(7, 64), st.integers(65, 4096)))
@settings(deadline=None, max_examples=60)
def test_any_chunk_size_gives_the_bits_of_one_process(tmp_path_factory,
                                                      order, seed, chunk):
    # chunk edges fall inside numbers and inside ]],[[, and at 7 bytes
    # every row spans several chunks
    rng = Random(seed)
    text = dump_text(matrix_to_json(HessenbergMatrix(order, [
        [complex(random_part(rng), random_part(rng))
         for _ in range(row_length(order, i))]
        for i in range(1, order + 1)])))
    path = tmp_path_factory.mktemp("doc") / "m.json"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(split_read, "_CHUNK", chunk)
        fds = open_fds()
        value = split_read.det_float(str(path), None)
        no_child_left()
        assert open_fds() == fds
    # the split takes every such document with a row boundary past its cut
    assert (value is not None) == (the_cut(text) >= 0)
    if value is not None:
        want = det_recurrence(matrix_from_json(parse_text(text))[0])
        assert repr(value) == repr(want)


def test_a_fifo_is_read_once_and_never_split(tmp_path, monkeypatch, fork):
    # past the threshold too: a pipe can be read only once, by cli._read
    text = matrix_text(12)
    path = tmp_path / "m.json"
    path.write_text(text)
    want = run(["det", str(path)])
    assert fork.calls == 1
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reads, read = [], cli._read

    def counted_read(name):
        reads.append(name)
        return read(name)

    monkeypatch.setattr(cli, "_read", counted_read)
    writer = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; open(sys.argv[1], 'w').write(sys.argv[2])",
         str(fifo), text])
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(["det", str(fifo)])
    finally:
        assert writer.wait(10) == 0
    no_child_left()
    assert (code, out.getvalue(), err.getvalue()) == want
    assert (reads, fork.calls) == ([str(fifo)], 1)


# starts `python -m hessenbergian ...` and prints its exit code and max
# RSS, read by os.wait4 as perfbench/launcher.py reads it.  A child's max
# RSS counts the pages of the process that forked it until exec, so the
# command is started from this small process and not from pytest.
_LAUNCHER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def max_rss(*argv) -> int:
    """The peak RSS in bytes of ``python -m hessenbergian ARGV`` and
    the children it reaps, as perfbench's ``peak_rss_mb`` reads it."""
    code, rss = map(int, subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m",
         "hessenbergian", *argv],
        capture_output=True, text=True, check=True).stdout.split())
    assert code == 0, argv
    return rss if sys.platform == "darwin" else rss * 1024  # Linux: KiB


def test_det_of_a_large_file_holds_no_copy_of_its_text(tmp_path):
    # the command holds its decoded tail rows, about 40 bytes a stored
    # entry, as many as the text spends on one, and a chunk at a time,
    # but neither process holds the text; a command that reads no file
    # (sep) sets the floor
    path = tmp_path / "m.json"
    path.write_text(dump_text(matrix_to_json(
        cli.random_float_matrix(400, Random(400)))))
    size = path.stat().st_size
    assert size >= cli._SPLIT_READ_CHARS
    det = max_rss("det", str(path))
    sep = max_rss("sep", "--order", "1", "--index", "0")
    assert det - sep < 1.0 * size, (det, sep, size)
