"""The file boundary: every file the package reads is checked by
``read_bytes`` (``read_text`` decodes what it returns), and every file
it writes goes through ``write_atomic``.

This module needs no numpy, so a command that only reads and writes
text (``report``) loads none.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable

from .errors import FormatError

# bytes of whole lines ``read_bytes`` decodes at once to check them: the
# text it drops takes up to 4 bytes a character, so it stays a few MB
CHECK_BYTES = 1 << 20


def read_text(path) -> str:
    """A UTF-8 file's text, as ``read_bytes`` checks and normalizes it."""
    return read_bytes(path).decode("utf-8")


def read_bytes(path) -> bytes:
    """A UTF-8 file's bytes, its lines ending in ``\\n`` (where text-mode
    reading ends them: at ``\\n``, ``\\r\\n`` or ``\\r``).  The whole file
    is checked strictly, CHECK_BYTES of lines at a time, so no decoded
    copy of it is held: invalid UTF-8 anywhere, an unfinished last
    character included, raises a FormatError naming the file, the line
    and the byte."""
    # no UTF-8 sequence holds a "\r" or "\n", so lines can end first, and
    # a stretch of whole lines decodes as it would within the whole file
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    view = memoryview(data)
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + CHECK_BYTES) + 1 or len(data)
        try:
            str(view[start:end], "utf-8")
        except UnicodeDecodeError as exc:
            at = start + exc.start
            line = data.count(b"\n", 0, at) + 1
            raise FormatError(
                f"{path}:{line}: not UTF-8: byte 0x{data[at]:02x} ({exc.reason})"
            ) from None
        start = end
    return data


def write_atomic(path, pieces: Iterable[str]) -> str:
    """Write the pieces to ``path`` as UTF-8, creating its directory;
    returns the SHA-256 digest of the bytes.  They go to a temporary
    name beside ``path``, renamed over it once all are written, so a
    failed write leaves an earlier file as it was and no temporary one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()
