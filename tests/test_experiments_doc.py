"""EXPERIMENTS.md quotes the benchmark goldens verbatim.

A fenced block right under ``<!-- golden: NAME -->`` must equal
``benchmarks/goldens/NAME.txt``, and every golden is quoted exactly
once, so a change that regenerates a golden updates the document too.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "benchmarks" / "goldens"
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
MARKER = re.compile(r"^<!-- golden: (\S+) -->$", re.M)
QUOTED = re.compile(r"^<!-- golden: (\S+) -->\n```\n(.*?)^```$", re.M | re.S)
BLOCKS = QUOTED.findall(DOC)


def test_every_golden_is_quoted_once():
    marked = MARKER.findall(DOC)
    assert [name for name, _ in BLOCKS] == marked, (
        "a golden marker without a fenced block right under it"
    )
    goldens = sorted(path.stem for path in GOLDENS.glob("*.txt"))
    assert sorted(marked) == goldens


@pytest.mark.parametrize(
    "name,block", BLOCKS, ids=[name for name, _ in BLOCKS]
)
def test_quoted_block_equals_its_golden(name, block):
    assert block == (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
