"""Every file read and write of the package, and its CSV text.

Filesystem failures raise IoError naming the file.  Whole files come
from `read_file`.  Image files are opened as a `FileReader`: the raw
(P5/P6) raster of a regular file is read by position, block by block,
into buffers the caller keeps; any other image file is read whole.
No other module opens, reads or maps a file.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InsufficientData, IoError, MalformedFile


def write_file(path: str | Path, data: bytes | str, what: str) -> None:
    """Write data (str as UTF-8) to path; `what` names it in errors.

    A new or regular file goes to a temp file beside it, renamed into
    place (not fsynced) with a replaced file's mode, so a failed write
    never truncates it.  A symlink, FIFO or device is written through.
    """
    path = Path(path)
    data = data.encode("utf-8") if isinstance(data, str) else data
    try:
        old = path.lstat() if os.path.lexists(path) else None
        if old is not None and not stat.S_ISREG(old.st_mode):
            path.write_bytes(data)
            return
        tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
        fh = open(tmp, "xb")
        try:
            with fh:
                if old is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


def read_file(path: str | Path, what: str) -> bytes:
    """The bytes of path; `what` names it in errors."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


class FileReader:
    """An open file, read whole or at given offsets; `what` names it in errors.

    `size` is the length of a regular file at opening, and None for a
    FIFO, device or other file that cannot be read by position.  Reads
    at an offset may run in several threads at once.
    """

    def __init__(self, path: str | Path, what: str):
        self._name = f"{what} {path}"
        try:
            self._file = open(path, "rb", buffering=0)
        except OSError as exc:
            raise IoError(f"cannot read {self._name}: {exc}") from exc
        st = os.fstat(self._file.fileno())
        self.size = st.st_size if stat.S_ISREG(st.st_mode) else None

    def __enter__(self) -> FileReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def read_all(self) -> bytes:
        """The whole file, read to its end (a FIFO's, until its writer closes it)."""
        try:
            return self._file.readall()
        except OSError as exc:
            raise IoError(f"cannot read {self._name}: {exc}") from exc

    def read_into(self, buf, offset: int) -> int:
        """Fill the writable buffer `buf` from `offset` on; the count read.

        Fewer bytes than `buf` holds means the file ended first.
        """
        view = memoryview(buf).cast("B")
        done = 0
        try:
            while done < len(view):
                got = os.preadv(self._file.fileno(), [view[done:]], offset + done)
                if got == 0:
                    break
                done += got
        except OSError as exc:
            raise IoError(f"cannot read {self._name}: {exc}") from exc
        return done

    def read(self, offset: int, n: int) -> bytes:
        """Up to n bytes from `offset` on; fewer only at the end of the file."""
        buf = bytearray(n)
        return bytes(buf[: self.read_into(buf, offset)])


def _csv_rows(rows: Iterable[Sequence[str]], lineterminator: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator).writerows(rows)
    return buf.getvalue()


def csv_text(rows: Iterable[Sequence[str]], lineterminator: str = "\r\n") -> str:
    """Rows as CSV text, a field quoted only where it needs it.

    The csv writer quotes a line break only if the terminator holds it;
    a field with CR or LF is quoted whatever the terminator, so that a
    reader does not split its row.
    """
    rows = list(rows)
    text = _csv_rows(rows, lineterminator)
    if not any(c in text and c not in lineterminator for c in "\r\n"):
        return text
    # CRLF quotes both breaks; each row swaps it for the wanted terminator.
    return "".join(_csv_rows([row], "\r\n")[:-2] + lineterminator for row in rows)


def read_csv(path: str | Path, fields: Sequence[str], what: str) -> list[list[str]]:
    """The stripped data rows, from line 2 on, of a UTF-8 CSV headed by fields.

    A header alone raises InsufficientData, any other fault MalformedFile.
    """
    data = read_file(path, what)
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedFile(f"unreadable {what} {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != tuple(fields):
        got = ",".join(rows[0]) if rows else "nothing"
        raise MalformedFile(f"{what} header must be {','.join(fields)}, got {got}")
    if len(rows) == 1:
        raise InsufficientData(f"{what} {path} has no data rows")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(fields):
            raise MalformedFile(
                f"{what} line {lineno}: expected {len(fields)} fields, got {len(row)}")
    return [[v.strip() for v in row] for row in rows[1:]]
