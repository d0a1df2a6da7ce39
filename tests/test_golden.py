"""Golden bytes: every CLI output on a small fixed orchard keeps its digest.

A change meant to keep outputs byte-identical must leave each SHA-256
below as it is; a change meant to alter an output updates its digest
here and says why.  The orchard is `synth` at seed 7 (8 trees x 3
points of 100x100, counted on a 20-pixel grid), with one photo of tree
t001 made constant, so extraction skips that tree.  Console text is hashed with the temporary
directory masked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np
import pytest

from shadowprune.cli import main
from shadowprune.imgcore import GrayImage, encode_pgm

GOLDEN = {
    "evaluate seed 0 console": "4e00b8452d072feb179e98be99b4808c5b68b991c9873f9f5b8dc1f0de89e8fd",
    "evaluate seed 0 model": "54c761e83f1738b8135582f720e75635efd1ecacff6d2421d52bff6e2cdee1c6",
    "evaluate seed 0 report": "29d6b13212b4da6dbe717a38051602ab00510f75d1a1792ef87bb4e88589c343",
    "evaluate seed 3 console": "311a631af31995b24ab2977cfc54e5bafdd7de0936d466fba722c486ea05f213",
    "evaluate seed 3 model": "a2e4d03a045082797a15cf8833d569847fb4d977d48271b2e679030f2d1c1774",
    "evaluate seed 3 report": "0ae8fa30a3fcf4b8e946f9eabe0d5d50d49060d217ca3b8482c903713bf7637c",
    "extract nopool console": "92e0a594cd32fbef4f11f206fad3b782c80589aa8e3c50582c723b9df36605f0",
    "extract nopool csv": "aec22536194eb2e450468f4789ee256c02a8353a8ee7d7a24dc88e10812fb2fb",
    "extract photos console": "bece942114ffb34df155d57532d0302b8850f5c720f8e131863285e29ebe8929",
    "extract photos csv": "10e558eebf632f5c184670fa873af6715f5d0d353ac4cc8c0bd7e51ac2dca522",
    "extract trees console": "829be33be00bba5f7917cd65e219496f881363ba49709767bafe092000227f39",
    "extract trees csv": "aacadf0d8e5805bb953895b545cbc81ea3302bb0919c35a7c0d9343561f8ec0c",
    "plot rbf": "50801cba33444d0bc0b6d717c419d2401b6fc475fa9307f77939648b98cf368c",
    "predict linear": "cf8bba756485cd56a57ef5c5471a55584367b656806e052cd7bb50fede07a449",
    "predict rbf": "83926f6270055b034ea75ffbcd07c40dcd58b629735bc0a2bd9205761679fde1",
    "train linear console": "aafc850684db9751b7f76242790a932d0999e39a1f940cf124e6576d695461c6",
    "train linear model": "9b1ee5b9b987038f6d89d377f187825efab8ba737fcc894b290f01e3b509dd32",
    "train rbf console": "97d5d8343464f991c562184571a84724633d87a3dfe36d8ba09a6dca8d8989e7",
    "train rbf model": "20dca2de06c0fb8b635e1f4eec930a7d9296a5c6dcfc3c7ab6125cc28a35c579",
}


def _run(argv: list[str], root: str) -> bytes:
    """Run the CLI, require exit 0, and return stdout then stderr, root masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    return (out.getvalue() + err.getvalue()).replace(root, "<tmp>").encode()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    root = tmp_path_factory.mktemp("golden")
    d = str(root)
    manifest = f"{d}/manifest.csv"
    got: dict[str, bytes] = {}
    _run(["--seed", "7", "synth", "--out", d, "--trees", "8", "--points", "3",
          "--image-size", "100"], d)
    (root / "images" / "t001_p01.pgm").write_bytes(
        encode_pgm(GrayImage(np.full((100, 100), 128, dtype=np.uint8))))

    for name, flags in (("photos", []), ("trees", ["--per-tree"]),
                        ("nopool", ["--no-pool"])):
        got[f"extract {name} console"] = _run(
            ["extract", manifest, f"{d}/{name}.csv", "--grid", "20", *flags], d)
        got[f"extract {name} csv"] = (root / f"{name}.csv").read_bytes()
    for kernel in ("linear", "rbf"):
        got[f"train {kernel} console"] = _run(
            ["train", f"{d}/photos.csv", f"{d}/{kernel}.model", "--kernel", kernel], d)
        got[f"train {kernel} model"] = (root / f"{kernel}.model").read_bytes()
        got[f"predict {kernel}"] = _run(["predict", f"{d}/{kernel}.model",
                                         f"{d}/trees.csv"], d)
    got["plot rbf"] = (_run(["plot", f"{d}/photos.csv", f"{d}/rbf.model",
                             f"{d}/rbf.svg"], d)
                       + (root / "rbf.svg").read_bytes())
    for seed in ("0", "3"):
        got[f"evaluate seed {seed} console"] = _run(
            ["--seed", seed, "evaluate", manifest, "--grid", "20",
             "--report", f"{d}/r{seed}.txt", "--save-model", f"{d}/e{seed}.model"], d)
        got[f"evaluate seed {seed} report"] = (root / f"r{seed}.txt").read_bytes()
        got[f"evaluate seed {seed} model"] = (root / f"e{seed}.model").read_bytes()
    return got


def test_every_output_is_recorded(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]
