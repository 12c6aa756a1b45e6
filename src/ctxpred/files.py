"""The file boundary: every file the package reads is decoded by
``read_text`` and every file it writes goes through ``write_atomic``.

This module needs no numpy, so a command that only reads and writes
text (``report``) loads none.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable

from .errors import FormatError


def read_text(path) -> str:
    """A UTF-8 file's text, its lines ending in ``\\n`` (where text-mode
    reading ends them: at ``\\n``, ``\\r\\n`` or ``\\r``).  The file is
    decoded whole and strictly: invalid UTF-8 anywhere, an unfinished
    last character included, raises a FormatError naming the file, the
    line and the byte."""
    # no UTF-8 sequence holds a "\r" or "\n", so lines can end first
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"{path}:{line}: not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


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
