"""The tree comparison of ``tools/parity.py``, the repository's determinism check:
it must name every file that differs or exists on one side only, and nothing else."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _tool():
    spec = importlib.util.spec_from_file_location(TOOL.stem, TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_differences_names_one_sided_and_differing_files_only(tmp_path):
    same = {"results.jsonl": b'{"seed": 0}\n', "tables/truth.csv": b"a,b\r\n1,2\r\n"}
    # nested, byte-level and equal-size differences all count
    parent = _tree(tmp_path / "parent", {
        **same, "stdout/0.txt": b"0.1234", "tables/beta_seed0.csv": b"1,2\n", "gone.json": b"{}",
    })
    change = _tree(tmp_path / "change", {
        **same, "stdout/0.txt": b"0.1235", "tables/beta_seed0.csv": b"1,2\r\n", "new.json": b"{}",
    })
    assert _tool().differences(parent, change) == [
        "only in parent: gone.json",
        "only in change: new.json",
        "differs: stdout/0.txt",
        "differs: tables/beta_seed0.csv",
    ]


def test_differences_finds_nothing_on_identical_trees(tmp_path):
    files = {"results.jsonl": b'{"seed": 0}\n', "paired/tables/truth.csv": b"1,2\n",
             "empty.txt": b""}
    parent, change = _tree(tmp_path / "parent", files), _tree(tmp_path / "change", files)
    assert _tool().differences(parent, change) == []
