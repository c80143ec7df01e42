"""The two-process read of a large float matrix document.

``cli.cmd_det`` hands a document of at least ``cli._SPLIT_READ_CHARS``
characters to :func:`read_float_matrix`, which parses and decodes its
rows on two cores: one forked child takes the second half of the rows
while this process takes the first.  It runs only on the shape that
``dump_text(matrix_to_json(m))`` writes, ``{"order":N,"rows":[[[`` ...
``]]]}`` with trailing whitespace allowed, read as float, and only where
``os.fork`` exists, the process runs one thread as the OS counts them
(CPython 3.12+ warns on a fork beside any other thread, a native pool
such as a BLAS library's included) and at least two CPUs are usable.

The text is cut at the first row boundary ``]],[[`` at or after its
middle.  The head, closed by ``]]]}``, and the tail, opened by ``[[[``,
both parse only if the cut falls between two rows of the ``rows``
list, and then their rows joined are the document's rows: the tail
closes exactly the three lists that it opens, so no key follows the
cut.  json reads every number on its own, so each double keeps its
bits.  This process checks its half through
:func:`formats._matrix_document`, the one check that
:func:`formats.matrix_from_json` runs (keys, an integer order, rows that
are a list of lists, the realization of the first scalar that is not a
bare integer, and the backend), and goes on only when the realization
and the backend are both float; the child checks that its rows are
lists, and both decode with :func:`formats._decode_rows`.  Any other
outcome returns None, and the caller reads the whole text in one
process, which alone words every error: a fragment that does not parse
(a NaN token, an integer past the digit limit, a cut inside a string),
a decode that returns None, a matrix the constructor refuses, or a
child that fails.  The child is reaped before this module returns or
raises, killed first where it has not finished.  It loads nothing and
writes only to its pipe: its rows go back as ``marshal`` bytes (tuples
of ``complex``, which ``marshal`` carries exactly), and it leaves by
``os._exit`` whatever happens.
"""

from __future__ import annotations

import marshal
import os
import re
import signal
import threading

from .errors import FLOAT
from .formats import (_decode_rows, _matrix_document, _require_rows,
                      parse_text)
from .matrix import HessenbergMatrix

# the start of every document dump_text(matrix_to_json(m)) writes for
# a matrix of order 2 or more, and json's whitespace
_CANONICAL_START = re.compile(r'\{"order":\d+,"rows":\[\[\[')
_JSON_SPACE = " \t\n\r"
_ROW_BOUNDARY = "]],[["


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


def read_float_matrix(text: str, backend):
    """(matrix, "float") read from ``text`` on two cores, or None where
    the two-process read does not apply or does not succeed."""
    if (backend not in (None, FLOAT) or not hasattr(os, "fork")
            or _threads() != 1 or _usable_cpus() < 2):
        return None
    body = text.rstrip(_JSON_SPACE)
    if not (_CANONICAL_START.match(body) and body.endswith("]]]}")):
        return None
    cut = body.find(_ROW_BOUNDARY, len(body) // 2)
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
        _tail_child("[[[" + body[cut + len(_ROW_BOUNDARY):-1], write_fd)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            try:  # the head, checked as a whole document is
                order, rows, mode, backend = _matrix_document(
                    parse_text(body[:cut] + "]]]}"), backend)
                rows = mode == backend == FLOAT and _decode_rows(
                    rows, FLOAT, FLOAT)
            except Exception:  # the one-process read words whatever went wrong
                return None
            if not rows:  # not float, or not decoded in one pass
                return None
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:  # the child may still run: stop it, then reap it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    try:
        tail = marshal.loads(payload)
        return (None if tail is None
                else (HessenbergMatrix(order, rows + tail), FLOAT))
    except Exception:  # the one-process read words whatever went wrong
        return None


def _tail_child(tail: str, write_fd: int) -> None:
    """The child: parse and decode the tail's rows, send them (or None)
    down the pipe, and leave by os._exit, 0 only if all of it ran."""
    status = 1
    try:
        rows = parse_text(tail)
        _require_rows(rows, "matrix rows")
        with open(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(_decode_rows(rows, FLOAT, FLOAT) or None))
        status = 0
    finally:
        os._exit(status)
