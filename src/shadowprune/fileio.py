"""Every file read and write of the package, and its CSV text.

Filesystem failures raise IoError naming the file.
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
