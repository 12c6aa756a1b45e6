"""The file boundary: every file the package reads comes through
``read_blocks``, a block of whole, checked lines at a time (``read_bytes``
and ``read_text`` join its blocks), and every file it writes goes
through ``write_atomic``.

This module needs no numpy, so a command that only reads and writes
text (``report``) loads none.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .errors import FormatError

# bytes of whole lines ``read_blocks`` hands on at once (a longer line is
# a block of its own).  ``corpus.read_tsv`` converts a block at a time,
# and a block's arrays take about 6 times its bytes.  On a 6.0 MB
# corpus (gen 200x250x3, 2-vCPU Xeon, one core) blocks of 128 KiB,
# 256 KiB, 512 KiB, 1 MiB and 2 MiB parsed at a tracemalloc peak of
# 7.0, 7.2, 8.9, 11.8 and 17.6 MB, in medians of 15 parses of 203-211,
# 182-191, 205-238, 171-176 and 161-167 ms (two runs each): smaller
# blocks add per-block work, larger ones memory, and from 256 KiB on
# the times differ less than two runs of one size do
BLOCK_BYTES = 1 << 19


def read_text(path, digest=None) -> str:
    """A UTF-8 file's text, as ``read_blocks`` checks, normalizes and digests it."""
    return read_bytes(path, digest).decode("utf-8")


def read_bytes(path, digest=None) -> bytes:
    """A UTF-8 file's bytes, as ``read_blocks`` checks, normalizes and digests them."""
    with open(path, "rb") as handle:
        return b"".join(read_blocks(handle, digest))


def read_blocks(handle: BinaryIO, digest=None) -> Iterator[bytes]:
    """The lines of the file open in ``handle``, in blocks of whole lines
    of at most BLOCK_BYTES (or one longer line).  Lines end where
    text-mode reading ends them, at ``\\n``, ``\\r\\n`` or ``\\r``, and are
    handed on ending in ``\\n``; the last block ends where the file does.

    Each block is checked strictly as UTF-8 before it is yielded, so no
    decoded copy of the file is held, and invalid UTF-8 (an unfinished
    last character included) raises a FormatError naming the file
    (``handle.name``), the line and the byte once the blocks before it
    are handed on.  ``digest`` (a ``hashlib`` object), if given, takes
    the file's bytes as they are read."""
    # no UTF-8 sequence holds a "\r" or "\n", so lines can end first, and
    # a block of whole lines decodes as it would within the whole file
    data, line, cr, at_end = b"", 1, False, False
    while not at_end:
        chunk = handle.read(BLOCK_BYTES)
        if digest is not None:
            digest.update(chunk)
        at_end = not chunk
        # a "\r" that ends a read may begin a "\r\n": it waits for the next
        chunk = b"\r" + chunk if cr else chunk
        cr = not at_end and chunk.endswith(b"\r")
        if cr:
            chunk = chunk[:-1]
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        data += chunk
        del chunk
        while data:
            end = 0
            if len(data) >= BLOCK_BYTES:
                end = data.rfind(b"\n", 0, BLOCK_BYTES) + 1 or data.find(b"\n", BLOCK_BYTES) + 1
            if not end:
                if not at_end:
                    break
                end = len(data)
            block, data = data[:end], data[end:]
            try:
                # ASCII is UTF-8: such a block needs no decoded copy
                if not block.isascii():
                    block.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = line + block.count(b"\n", 0, exc.start)
                raise FormatError(
                    f"{handle.name}:{at}: not UTF-8: "
                    f"byte 0x{block[exc.start]:02x} ({exc.reason})"
                ) from None
            line += block.count(b"\n")
            yield block


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
