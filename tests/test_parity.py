import importlib.util
import shutil
from pathlib import Path

from onemax.model import init_params, save_checkpoint

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py"
)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def _output_tree(root: Path) -> Path:
    """A small stand-in for one tree's script output."""
    root.mkdir()
    save_checkpoint(init_params(3, 8, (1, 3), 4, seed=1), root / "multi.1max")
    (root / "stdout").mkdir()
    (root / "stdout" / "eval.txt").write_text("   clean    mean\n  1.0000  1.0000\n")
    (root / "sifs").mkdir()
    (root / "sifs" / "a.sif").write_bytes(b"SIF1" + bytes(range(40)))
    return root


def test_identical_trees_compare_equal(tmp_path):
    base = _output_tree(tmp_path / "base")
    shutil.copytree(base, tmp_path / "change")
    assert parity.compare(base, tmp_path / "change") == []


def test_one_flipped_byte_is_named_with_its_offset(tmp_path):
    base = _output_tree(tmp_path / "base")
    change = tmp_path / "change"
    shutil.copytree(base, change)
    data = bytearray((change / "multi.1max").read_bytes())
    data[36] ^= 0x01
    (change / "multi.1max").write_bytes(bytes(data))
    size = len(data)
    assert parity.compare(base, change) == [
        f"differs: multi.1max at byte 37 ({size} bytes in base, {size} in change)"
    ]


def test_files_on_one_side_are_listed_and_renames_matched_by_content(tmp_path):
    base = _output_tree(tmp_path / "base")
    change = tmp_path / "change"
    shutil.copytree(base, change)
    (change / "sifs" / "a.sif").rename(change / "sifs" / "b.sif")
    (change / "stdout" / "eval.txt").write_text("   clean    mean\n  1.0000  1.0000\n  \n")
    (change / "extra.txt").write_text("x")
    (base / "gone.txt").write_text("y")
    assert parity.compare(base, change) == [
        # one file a prefix of the other: the first byte past the shorter one
        "differs: stdout/eval.txt at byte 35 (34 bytes in base, 37 in change)",
        "only in base: gone.txt",
        "moved: sifs/a.sif -> sifs/b.sif (same bytes)",
        "only in change: extra.txt",
    ]
