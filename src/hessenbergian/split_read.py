"""The two-process determinant of a large float matrix document.

``cli.cmd_det`` hands a document of at least ``cli._SPLIT_READ_CHARS``
characters, for ``det --method recurrence``, to :func:`det_float`, which
evaluates the recurrence on two cores.  Row j of the recurrence reads
nothing above it but the running q_k, det(H_{j-1}) and the
superdiagonal h_{j-1,j} (see :mod:`determinants`), so one forked child
parses, decodes and checks the head rows and runs the float recurrence
over them, and sends only that state down its pipe, about as many
values as it has rows, while this process parses, decodes and checks
the tail rows.  This process then resumes the same loop,
:func:`determinants._float_prefixes`, from the child's state, so the
value is bit for bit that of :func:`determinants.det_recurrence` on the
matrix the one-process read builds.  No row crosses the pipe, and no
half-document string or parse tree is built: both processes parse the
one text in place, one row at a time, with
``json.JSONDecoder.raw_decode``, and decode each row as it is parsed
with :func:`formats._decode_rows`, the one float decode rule.

It runs only on the shape that ``dump_text(matrix_to_json(m))`` writes,
``{"order":N,"rows":[[[`` ... ``]]]}`` with trailing whitespace
allowed, read as float, and only where ``os.fork`` exists, the process
runs one thread as the OS counts them (CPython 3.12+ warns on a fork
beside any other thread, a native pool such as a BLAS library's
included) and at least two CPUs are usable.  The text is cut at the
first row boundary ``]],[[`` at or after ``_HEAD_SHARE`` of its length.
The child reads the order token with the JSON scanner and then the rows
in order from the start of the ``rows`` list; the head holds them only
if one of them ends exactly at the cut, each followed by a comma.  This
process reads the rows from just past the cut, each followed by a comma,
up to one that ends where the closing ``]}`` starts.  So, when both
succeed, the text is ``{"order":N,"rows":[`` and then the rows, which is
a matrix document with exactly the keys ``order`` and ``rows``.  Both
decode every row as float, and the first scalar, a list by the
canonical start and then decoded as a pair, names the float
realization, as :func:`formats._matrix_document` reads it.  The child
checks the length of each head row against the order, and this process
checks the tail rows once the child has said where they start, and
that the rows number the order, as the matrix constructor does.  Any
other outcome returns None, and the caller reads the whole
text in one process, which alone words every error: a text that does
not parse (a NaN token, an integer past the digit limit, whitespace
between rows, a cut inside a string), a row that does not decode as
float, an exact document, a wrong order or row length, or a child that
fails.  The child is reaped before this module returns or raises,
killed first where it has not finished.  It loads nothing and writes
only to its pipe: its state goes as ``marshal`` bytes (``complex``
values, which ``marshal`` carries exactly), and it leaves by
``os._exit`` whatever happens.
"""

from __future__ import annotations

import json
import marshal
import os
import re
import signal
import threading

from .determinants import _float_prefixes
from .errors import FLOAT
from .formats import _decode_rows, _refuse_constant

# the start of every document dump_text(matrix_to_json(m)) writes for
# a matrix of order 2 or more, and json's whitespace
_CANONICAL_START = re.compile(r'\{"order":\d+,"rows":\[\[\[')
_JSON_SPACE = " \t\n\r"
_ROW_BOUNDARY = "]],[["
# the share of the text the child takes: it also runs the recurrence
# over its rows while this process parses the rest (ROADMAP item 11)
_HEAD_SHARE = 0.45


def _threads() -> int:
    """The threads of this process as the OS counts them, where it says
    (Linux); Python's own count elsewhere."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def det_float(text: str, backend):
    """``det_recurrence`` of the float matrix document ``text``, computed
    on two cores, or None where the two-process path does not apply or
    does not succeed."""
    if (backend not in (None, FLOAT) or not hasattr(os, "fork")
            or _threads() != 1 or _usable_cpus() < 2):
        return None
    body = text.rstrip(_JSON_SPACE)
    if not (_CANONICAL_START.match(body) and body.endswith("]]]}")):
        return None
    cut = body.find(_ROW_BOUNDARY, int(len(body) * _HEAD_SHARE))
    if cut < 0:
        return None
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _head_child(body, cut + 2, write_fd)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            try:  # the tail, up to the closing ]}
                tail = _float_rows(body, cut + 3, len(body) - 2)
            except Exception:  # the one-process read words whatever went wrong
                return None
            if tail is None:
                return None
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:  # the child may still run: stop it, then reap it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    order, m, q, det, prev = marshal.loads(payload)
    if m + len(tail) != order or any(len(row) != min(i + 1, order)
                                     for i, row in enumerate(tail, m + 1)):
        return None
    dets = [det]
    _float_prefixes(tail, q, dets, prev)
    return dets[-1]


def _float_rows(body: str, pos: int, end: int):
    """The rows of ``body`` from ``pos`` up to the one that ends at
    ``end``, each followed by a comma, parsed one at a time and decoded
    as float, or None where they do not read so."""
    scan = json.JSONDecoder(parse_constant=_refuse_constant).raw_decode
    rows = []
    while True:
        row, pos = scan(body, pos)
        decoded = type(row) is list and _decode_rows([row], FLOAT, FLOAT)
        if not decoded:
            return None
        rows.append(decoded[0])
        if pos == end:
            return rows
        if body[pos] != ",":
            return None
        pos += 1


def _head_child(body: str, end: int, write_fd: int) -> None:
    """The child: read the order and the head rows, which end at
    ``end``, run the recurrence over them, send its state down the pipe
    as ``(order, m, q, det(H_m), h_{m,m+1})``, and leave by
    os._exit, 0 only if all of it ran."""
    status = 1
    try:
        scan = json.JSONDecoder(parse_constant=_refuse_constant).raw_decode
        order, pos = scan(body, len('{"order":'))
        rows_at = pos + len(',"rows":[')
        rows = (type(order) is int and body.startswith(',"rows":[', pos)
                and _float_rows(body, rows_at, end))
        if rows and len(rows) < order and all(
                len(row) == i + 1 for i, row in enumerate(rows, 1)):
            dets = [1 + 0j]
            q, prev = _float_prefixes(rows, [], dets)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(
                    (order, len(rows), q, dets[-1], prev)))
            status = 0
    finally:
        os._exit(status)
