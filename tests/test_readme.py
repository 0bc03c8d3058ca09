"""The README's Python examples run as written, against small input files
with the names they use."""

import json
import re
import struct
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def _box(frame_id, timestamp, cx, score):
    return {"frame_id": frame_id, "timestamp": timestamp, "cx": cx, "cy": 2.0, "cz": 0.5,
            "l": 4.0, "w": 2.0, "h": 1.5, "heading": 0.1, "score": score,
            "label": "VEHICLE"}


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(tmp_path, monkeypatch, capsys, index):
    records = [_box("f000", 0.0, 10.0, 0.9), _box("f000", 0.0, 10.2, 0.8),
               _box("f001", 0.1, 10.5, 0.85)]
    (tmp_path / "dets.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    for name, x in (("sweep.bin", 5.0), ("sweep_prev.bin", 5.05)):
        (tmp_path / name).write_bytes(struct.pack("<8f", x, 1.0, 0.5, 0.2, x + 3.0, -2.0, 0.0, 0.7))
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out
