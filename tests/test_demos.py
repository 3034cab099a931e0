"""Every demo script runs to completion with warnings as errors.

The demos run once, inside the canonical-output tool; each test reads its
demo's block from that run.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script, canonical_outputs):
    lines = canonical_outputs.stdout.splitlines()
    at = lines.index(f"$ python demos/{script.name}")
    assert lines[at + 1] == "exit 0"
