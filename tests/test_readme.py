"""The README's library quick start runs as written, and the values its
comments state hold."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs_and_its_comments_hold():
    block = quick_start()
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert "array([ 5, 13, 23, 31, 47, 19,  3]): P(90), ..., P(96)" in block
    assert scope["lpf_table"](90, 96).tolist() == [5, 13, 23, 31, 47, 19, 3]
    report = scope["report"]
    assert "array([3403, 5671, 1711])" in block
    assert report.score[:3].tolist() == [3403, 5671, 1711]
    assert "array([503, 515, 527, ..., 947])" in block
    exceptional = report.n[report.tag == 0].tolist()
    assert exceptional[:3] == [503, 515, 527] and exceptional[-1] == 947
