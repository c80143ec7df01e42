"""The two-process determinant of a large float matrix file.

``cli.cmd_det`` hands the path of a regular file of at least
``cli._SPLIT_READ_CHARS`` bytes, for ``det --method recurrence``, to
:func:`det_float` before it reads any text, and :func:`det_float`
evaluates the recurrence on two cores.  Row j of the recurrence reads
nothing above it but the running q_k, det(H_{j-1}) and the
superdiagonal h_{j-1,j} (see :mod:`determinants`), so one forked child
reads, decodes and checks the head rows and runs the float recurrence
over them, and sends only that state down its pipe, about as many
values as it has rows, while this process reads, decodes and checks the
tail rows.  This process then resumes the same loop,
:func:`determinants._float_prefixes`, from the child's state, so the
value is bit for bit that of :func:`determinants.det_recurrence` on the
matrix the one-process read builds.  No row crosses the pipe.

No process reads the whole file.  This process reads a few bytes at
each end of it and the window where it cuts it, all with ``os.pread``,
and then each process reads only its own byte range, in chunks of
``_CHUNK`` bytes.  The rows of a chunk end at the last row boundary
``]],[[`` in it, and the rest of the chunk, part of a row, is carried
into the next chunk.  The rows are decoded by
:func:`formats._decode_pair_rows` alone, which reads the ASCII rows of
``[re, im]`` float pairs that the package writes with one JSON parse of
a flat list of their numbers, each value with the bits that the
one-process read gives it.  Any other chunk (a byte that is not ASCII,
whitespace, an integer or bare number, an invalid token, a value beyond
the doubles) fails the process that reads it.  So a process holds at
most one chunk of text plus the row that runs past it, and the parsed
and decoded rows of one chunk.
The child runs the loop over each chunk's rows as they are decoded and
keeps none of them, only the state; this process keeps its decoded tail
rows, which wait for the child's state.  So the command's peak memory
exceeds that of a command that reads no file by about the decoded tail
rows, 40 bytes a stored entry (a ``complex`` and its slot in a row),
and not by the text: ``tests/split_read_cases.py`` checks that the
excess stays under the file's size.

It runs only on the shape that ``dump_text(matrix_to_json(m))`` writes,
``{"order":N,"rows":[[[`` ... ``]]]}`` with trailing whitespace
allowed, read as float, and only where ``os.fork`` exists, the process
runs one thread as the OS counts them (CPython 3.12+ warns on a fork
beside any other thread, a native pool such as a BLAS library's
included) and at least two CPUs are usable.  This process checks the
start of the file and its end, reads the order from the digits of the
start (an integer with no leading zero, as JSON reads one, within the
int/str digit limit), then cuts the file at the first row boundary
``]],[[`` at or after ``_HEAD_SHARE`` of its length, short of trailing
whitespace.  The child reads the rows in order from the start of the
``rows`` list; the head holds them only if one of them ends exactly at
the cut, each followed by a comma.  This process reads the rows from
just past the cut, each followed by a comma, up to one that ends where
the closing ``]}`` starts.  So, when both succeed, the text is
``{"order":N,"rows":[`` and then the rows, which is a matrix document
with exactly the keys ``order`` and ``rows``.  Both decode every row as float, and the first
scalar, a list by the canonical start and then decoded as a pair, names
the float realization, as :func:`formats._matrix_document` reads it.
The child checks the length of each head row against the order, and
this process checks the tail rows once the child has said where they
start, and that the rows number the order, as the matrix constructor
does.  Any other outcome returns None, and the caller reads the whole
file in one process, which alone words every error or reads what the
pair rule refuses: a byte that is not ASCII (a UTF-8 byte order mark
included), any text but rows of float pairs (a NaN token, an integer
part, whitespace, a cut inside a string, an exact document), a wrong
order or row length, a file that changes while it is read, or a child
that fails.  The child is reaped before this module returns or raises,
killed first where it has not finished, and the file is closed.  The
child loads nothing and writes only to its pipe: its state goes as
``marshal`` bytes (``complex`` values, which ``marshal`` carries
exactly), and it leaves by ``os._exit`` whatever happens.
"""

from __future__ import annotations

import marshal
import os
import re
import signal
import threading

from .determinants import _float_prefixes
from .errors import FLOAT
from .formats import _decode_pair_rows

# the start of every document dump_text(matrix_to_json(m)) writes for
# a matrix of order 2 or more, its order an integer with no leading
# zero, as JSON writes one, and json's whitespace
_CANONICAL_START = re.compile(rb'\{"order":([1-9]\d*),"rows":\[\[\[')
_JSON_SPACE = b" \t\n\r"
_ROW_BOUNDARY = b"]],[["
# the bytes read at each end of the file to check its start and its end
_EDGE = 64
# the bytes each process reads at a time (ROADMAP item 11)
_CHUNK = 64 * 1024
# the share of the text the child takes: it also runs the recurrence
# over its rows while this process reads the rest (ROADMAP item 11)
_HEAD_SHARE = 0.47


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


def det_float(path, backend):
    """``det_recurrence`` of the float matrix document in the regular
    file at ``path``, computed on two cores, or None where the
    two-process path does not apply or does not succeed."""
    if (backend not in (None, FLOAT) or not hasattr(os, "fork")
            or _threads() != 1 or _usable_cpus() < 2):
        return None
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        return _det_file(fd)
    finally:
        os.close(fd)


def _det_file(fd: int):
    """:func:`det_float` on the open file ``fd``."""
    try:
        size = os.fstat(fd).st_size
        head = os.pread(fd, _EDGE, 0)
        tail = os.pread(fd, _EDGE, max(size - _EDGE, 0))
        start = _CANONICAL_START.match(head)
        body = tail.rstrip(_JSON_SPACE)  # the end of the text, up to }
        if not (start and body.endswith(b"]]]}")):
            return None
        order = int(start[1])  # ValueError past the int/str digit limit
        end = size - len(tail) + len(body)
        cut = _cut(fd, int(end * _HEAD_SHARE), end)
    except (OSError, ValueError):
        return None
    if cut is None:
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
        _head_child(fd, order, start.end() - 2, cut + 2, write_fd)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            rows = []
            try:  # the tail, up to the closing ]}
                for chunk in _row_chunks(fd, cut + 3, end - 2):
                    rows += chunk
            except Exception:  # the one-process read words whatever went wrong
                return None
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:  # the child may still run: stop it, then reap it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    m, q, det, prev = marshal.loads(payload)
    if m + len(rows) != order or any(len(row) != min(i + 1, order)
                                     for i, row in enumerate(rows, m + 1)):
        return None
    dets = [det]
    _float_prefixes(rows, q, dets, prev)
    return dets[-1]


def _cut(fd: int, pos: int, end: int):
    """The offset of the first row boundary in the file at or after
    ``pos`` that ends by ``end``, read a window at a time, or None."""
    while pos + len(_ROW_BOUNDARY) <= end:
        window = os.pread(fd, min(_CHUNK, end - pos), pos)
        at = window.find(_ROW_BOUNDARY)
        if at >= 0:
            return pos + at
        if len(window) < len(_ROW_BOUNDARY):  # the file got shorter
            return None
        # the next window starts where a boundary cut by this one would
        pos += len(window) - len(_ROW_BOUNDARY) + 1
    return None


def _row_chunks(fd: int, pos: int, end: int):
    """The rows in bytes ``pos`` to ``end`` of the file, each followed
    by a comma but the last, which ends at ``end``: for each chunk read,
    the float rows that end in it, decoded by
    :func:`formats._decode_pair_rows`.  ValueError where they do not
    read so."""
    carried = []  # the text of the row that the chunks so far end inside
    while pos < end:
        data = os.pread(fd, min(_CHUNK, end - pos), pos)
        if not data:
            raise ValueError("the file got shorter")
        pos += len(data)
        # the rows end with the range, or else at the last boundary
        stop = len(data)
        if pos < end:
            stop = data.rfind(_ROW_BOUNDARY) + 2
            if stop < 2:  # no boundary: a row runs on past this chunk
                carried.append(data)
                continue
        rows = _decode_pair_rows(b"".join([*carried, data[:stop]]))
        if rows is None:
            raise ValueError("not rows of [re, im] float pairs")
        carried = [data[stop + 1:]]
        yield rows


def _head_child(fd: int, order: int, start: int, end: int,
                write_fd: int) -> None:
    """The child: read the head rows, which start at ``start`` and end
    at ``end``; run the recurrence over each chunk of them as it is
    decoded; send its state down the pipe as
    ``(m, q, det(H_m), h_{m,m+1})``; and leave by os._exit, 0 only if
    all of it ran and the head holds fewer rows than ``order``."""
    status = 1
    try:
        m, q, prev, dets = 0, [], None, [1 + 0j]
        for rows in _row_chunks(fd, start, end):
            if any(len(row) != i + 1 for i, row in enumerate(rows, m + 1)):
                return
            m += len(rows)
            q, prev = _float_prefixes(rows, q, dets, prev)
            del dets[:-1]
        if 0 < m < order:
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps((m, q, dets[-1], prev)))
            status = 0
    finally:
        os._exit(status)
