"""The file layer: whole-file writes, and no file access outside it."""

from __future__ import annotations

import ast
import os
import stat
import threading
from collections import Counter
from pathlib import Path

import pytest

import shadowprune
from shadowprune.errors import IoError
from shadowprune.fileio import FileReader, write_file

FILE_CALLS = {"open", "write_text", "write_bytes", "read_text", "read_bytes",
              "pread", "preadv", "mmap"}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _callers(sources: dict[str, str], name: str) -> set[str]:
    """module.function of each function that calls `name`, as name() or x.name().

    `sources` maps module names to sources; a call outside any function
    counts as module.<module>.  A nested function or a method counts as
    the top-level function or class that holds it.
    """
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None),
                                                           getattr(call.func, "attr", None)):
                    found.add(f"{module}.{owner}")
    return found


def test_caller_guard_sees_names_attributes_and_nesting():
    sources = {"a": "import numpy as np\nnp.bincount(x)\n"
                    "def f():\n    def g():\n        return bincount(x)\n",
               "b": "class C:\n    def m(self):\n        self.bincount()\n"
                    "def h():\n    return np.bincounts(x)\n"}
    assert _callers(sources, "bincount") == {"a.<module>", "a.f", "b.C"}


def test_one_histogram_kernel_and_one_otsu_scan():
    # Every histogram is counted by one kernel, and one function scans
    # the Otsu objective, whose cumulative class moments no other code
    # computes: a photo's threshold has a single path.
    package = Path(shadowprune.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _callers(sources, "bincount") == {"threshold._count_levels"}
    assert _callers(sources, "cumsum") == {"threshold.otsu_threshold",
                                           "threshold._exact_first_max"}
    scans = [f"{module}.{node.name}" for module, source in sources.items()
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and "otsu" in node.name.lower()]
    assert scans == ["threshold.otsu_threshold"]


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in a parsed node, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' of a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def _script_reads(tree: ast.AST) -> set[str]:
    """Names a script imports from shadowprune or reads off a shadowprune module."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shadowprune"):
            names |= {alias.name for alias in node.names}
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.startswith("shadowprune")}
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and _dotted(node.value) in modules}


def _unreferenced(package: dict[str, str], scripts: list[str]) -> list[str]:
    """module.name of each public top-level function or class that nothing reads.

    `package` maps module names to sources.  A read counts from any
    module but __init__, outside the definition itself, and from a
    script that imports the name or reads it off a shadowprune module.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = sum((_reads(tree) for module, tree in trees.items() if module != "__init__"),
                Counter())
    for source in scripts:
        reads.update(_script_reads(ast.parse(source)))
    return [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and reads[node.name] == _reads(node)[node.name]]


def test_reference_guard_counts_reads_from_outside_the_definition():
    package = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    return exported()\n"
              "def called(): pass\nclass Read: pass\ndef _private(): pass\n"
              "def scripted(): pass\ndef imported(): pass\n"),
        "b": "from . import a\nfrom .a import called\ncalled()\nx = a.Read\n",
    }
    scripts = ["from shadowprune import a\na.scripted()\n",
               "from shadowprune.a import imported\n"]
    assert _unreferenced(package, scripts) == ["a.exported"]


def test_no_public_function_or_class_is_left_to_tests_alone():
    package = Path(shadowprune.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    scripts = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    assert _unreferenced(sources, scripts) == []


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
