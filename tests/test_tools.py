"""The canonical-output tool runs and prints every entry it promises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_canonical_outputs_smoke():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "canonical_outputs.py")],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# run_bench rows: 96"
    rows = lines[1:97]
    assert len({tuple(row.split(",")[:4]) for row in rows}) == 96  # n, seed, trial, scheme
    assert lines[97] == "# catalog cli calls: 56"
    pairs_at = lines.index("# compare pairs: 84")
    benches_at = lines.index("# bench cli calls: 2")
    calls, pairs = lines[98:pairs_at], lines[pairs_at + 1:benches_at]
    assert sum(line.startswith("$ ") for line in calls) == 56
    assert sum(line.startswith("exit ") for line in calls) == 56
    assert sum(" altiter compare --matrix " in line for line in pairs) == 84
    assert sum(line == "exit 0" for line in pairs) == 84
    demos_at = lines.index("# demos: 5")
    benches = lines[benches_at + 1:demos_at]
    assert sum(" ALTITER_RANK_REL=1e-05 " in line for line in benches) == 2
    assert sum(line == "exit 0" for line in benches) == 2
    assert sum(line.split(",")[5:6] == ["<masked>"] for line in benches) == 12  # 2 x 2 x 3 rows
    demos = lines[demos_at + 1:]
    assert sum(line.startswith("$ python demos/") for line in demos) == 5
    assert sum(line == "exit 0" for line in demos) == 5
    assert sum(line.split(",")[5:6] == ["<masked>"] for line in demos) == 15  # demo 05: 5 x 3 rows
