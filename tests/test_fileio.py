"""The file layer: whole-file writes, and no file access outside it."""

from __future__ import annotations

import ast
import os
import stat
import threading
from pathlib import Path

import pytest

import shadowprune
from shadowprune.errors import IoError
from shadowprune.fileio import FileReader, write_file

FILE_CALLS = {"open", "write_text", "write_bytes", "read_text", "read_bytes",
              "pread", "preadv", "mmap"}


def test_failed_rename_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "f.csv"
    target.write_bytes(b"old,bytes\r\n")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(IoError, match="cannot write features CSV"):
        write_file(target, "new,text\r\n", "features CSV")
    assert target.read_bytes() == b"old,bytes\r\n"
    assert os.listdir(tmp_path) == ["f.csv"]


def test_symlink_is_kept_and_its_target_updated(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_file(link, "new\n", "predictions")
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_fifo_is_written_through(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_file(fifo, b"row\n", "predictions")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [b"row\n"]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_new_file_mode_matches_write_text(tmp_path):
    old_umask = os.umask(0o022)
    try:
        reference = tmp_path / "reference"
        reference.write_text("x")
        new = tmp_path / "new"
        write_file(new, "x", "report")
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["new", "reference"]


def test_replaced_file_keeps_its_mode(tmp_path):
    target = tmp_path / "m.model"
    target.write_text("old\n")
    target.chmod(0o640)
    write_file(target, b"new\n", "model file")
    assert target.read_bytes() == b"new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def _file_calls(tree: ast.AST) -> list[str]:
    """Names of the file-access calls in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in FILE_CALLS:
            found.append(func.id)
        elif isinstance(func, ast.Attribute):
            if func.attr in FILE_CALLS:
                found.append(func.attr)
            elif (func.attr in ("reader", "writer") and isinstance(func.value, ast.Name)
                  and func.value.id == "csv"):
                found.append(f"csv.{func.attr}")
    return found


def test_guard_sees_every_kind_of_call():
    source = ("open(p)\np.open()\np.write_text(t)\np.write_bytes(b)\n"
              "p.read_text()\np.read_bytes()\ncsv.reader(f)\ncsv.writer(f)\n"
              "os.pread(fd, n, 0)\nos.preadv(fd, [b], 0)\nmmap.mmap(fd, 0)\n")
    assert len(_file_calls(ast.parse(source))) == 11


def test_only_fileio_touches_files():
    package = Path(shadowprune.__file__).parent
    offenders = {
        path.name: calls
        for path in sorted(package.glob("*.py"))
        if path.name != "fileio.py"
        and (calls := _file_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def _process_state(tree: ast.AST) -> list[str]:
    """The ways a parsed module keeps state for the whole process: global
    statements, thread-local storage and fork hooks."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append("global")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "register_at_fork":
                found.append(name)
            elif name == "local" and (isinstance(func, ast.Name) or (
                    isinstance(func.value, ast.Name) and func.value.id == "threading")):
                found.append("threading.local")
    return found


def test_state_guard_sees_every_kind():
    source = ("def f():\n    global x\n"
              "threading.local()\nlocal()\n"
              "os.register_at_fork(after_in_child=f)\nregister_at_fork(before=f)\n"
              "x = threading.Lock()\nos.fork()\n")
    assert _process_state(ast.parse(source)) == [
        "global", "threading.local", "threading.local", "register_at_fork",
        "register_at_fork"]


def test_no_module_keeps_process_state():
    package = Path(shadowprune.__file__).parent
    offenders = {
        str(path.relative_to(package)): found
        for path in sorted(package.rglob("*.py"))
        if (found := _process_state(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_positional_reads_stop_at_the_end_and_name_the_file(tmp_path, monkeypatch):
    path = tmp_path / "photo.pgm"
    path.write_bytes(b"P5 1 1 255 \x00")
    with FileReader(path, "image") as reader:
        assert reader.size == 12
        assert reader.read(3, 100) == b"1 1 255 \x00"

        def fail(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "preadv", fail)
        with pytest.raises(IoError, match=f"cannot read image {path}: .*Input/output error"):
            reader.read(0, 4)
