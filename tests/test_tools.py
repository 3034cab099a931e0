"""The canonical-output tool prints every entry it promises; the mutation
harness enumerates and edits without writing; committed benchmark results
carry what they are compared by; the documented ALTITER_* variables are
exactly the Tolerances fields; README's python examples run."""

import ast
import difflib
import io
import json
import os
import re
import runpy
import tokenize
from dataclasses import fields
from pathlib import Path

from altiter import cli
from altiter.kernel import ENV_PREFIX, Tolerances

ROOT = Path(__file__).resolve().parent.parent


def test_canonical_outputs_smoke(canonical_outputs):
    done = canonical_outputs
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
    iterates_at = lines.index("# iterate bits: 17")
    large_at = lines.index("# n=400 instance digests: 12")
    helps_at = lines.index("# cli help: 6")
    demos, iterates = lines[demos_at + 1:iterates_at], lines[iterates_at + 1:large_at]
    # the tool runs each demo with PYTHONWARNINGS=error; tests/test_demos.py reads its block
    assert sum(line.startswith("$ python demos/") for line in demos) == 5
    assert sum(line == "exit 0" for line in demos) == 5
    assert sum(line.split(",")[5:6] == ["<masked>"] for line in demos) == 15  # demo 05: 5 x 3 rows
    fixtures = [line.split()[0] for line in iterates[:5]]
    assert fixtures == ["ex4.1", "ex5.1", "ex5.2", "ex5.3", "ex5.4"]
    # d.dot(d) overflows from sweep 1168 of ex4.1, and math.hypot takes over
    assert iterates[0].startswith("ex4.1 iterations=2000 converged=false last_step=5.43")
    assert " status=diverged first_nonfinite=None " in iterates[0]
    assert sum(line.startswith(("n=50 ", "n=128 ")) for line in iterates) == 12
    for line in iterates:
        fields = dict(field.split("=", 1) for field in line.split(" ") if "=" in field)
        assert len(fields["x_sha256"]) == len(fields["steps_sha256"]) == 64
        assert {"status", "first_nonfinite", "observed_rate"} <= set(fields)
    large = [line.split(" sha256=") for line in lines[large_at + 1:helps_at]]
    assert [name for name, _ in large] == ["a", "a_ginv", "target.ginv"] + [
        f"{name}{k}" for k in (1, 2, 3) for name in ("u", "v", "u_ginv")
    ]
    assert all(len(digest) == 64 for _, digest in large)
    helps = lines[helps_at + 1:]
    commands = [line for line in helps if line.startswith("$ ")]
    assert commands == ["$ altiter --help"] + [
        f"$ altiter {command} --help"
        for command in ("ginv", "classify", "solve", "compare", "bench")
    ]
    assert sum(line == "exit 0" for line in helps) == 6
    assert sum(line.startswith("usage: altiter") for line in helps) == 6
    assert max(map(len, helps)) <= 80


SYNTHETIC = """\
class Tolerances:
    tol: float = 1e-8


def f(a, b):
    if not a < b <= a:  # not < <=
        a -= min(a, b) + np.maximum(a, b)
    return a == b
"""


def tree_state():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*") if ".git" not in p.parts}


def test_mutants_edit_one_token_of_each_operator_class():
    mutants = runpy.run_path(str(ROOT / "tools" / "mutants.py"))
    found = mutants["enumerate_mutants"](SYNTHETIC, "x.py")
    assert [m.id for m in found] == [
        "x.py:2:18:1e-8->1e-7", "x.py:2:18:1e-8->1e-9", "x.py:6:8:not->", "x.py:6:14:<-><=",
        "x.py:6:18:<=-><", "x.py:7:11:-=->+=", "x.py:7:14:min->max", "x.py:7:24:+->-",
        "x.py:7:29:maximum->minimum", "x.py:8:14:==->!=",
    ]
    before = [t.string for t in tokenize.generate_tokens(io.StringIO(SYNTHETIC).readline)]
    for m in found:
        mutated = mutants["apply"](SYNTHETIC, m)
        ast.parse(mutated)
        after = [t.string for t in tokenize.generate_tokens(io.StringIO(mutated).readline)]
        matcher = difflib.SequenceMatcher(None, before, after, autojunk=False)
        (_, i1, i2, j1, j2), = [op for op in matcher.get_opcodes() if op[0] != "equal"]
        assert before[i1:i2] == [m.old] and after[j1:j2] == [m.new][:len(m.new)], m.id


def test_mutants_of_the_package_are_stable_and_written_nowhere():
    before = tree_state()
    mutants = runpy.run_path(str(ROOT / "tools" / "mutants.py"))
    found = mutants["all_mutants"]()
    assert found == mutants["all_mutants"]()
    assert len({m.id for m in found}) == len(found)
    for m in found:
        ast.parse(mutants["apply"]((ROOT / m.path).read_text(), m))
    assert tree_state() == before
    # a survivor is an enumerated mutant that tier-1 cannot kill, with the reason why;
    # under the harness the source is mutated, and so are the ids it enumerates
    if mutants["MUTANT_VARIABLE"] not in os.environ:
        survivors = (ROOT / "tools" / "survivors.jsonl").read_text().splitlines()
        for record in map(json.loads, survivors):
            assert record["id"] in {m.id for m in found}, record
            assert record["class"] in ("equivalent", "gap") and record["reason"], record


def test_committed_bench_files():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text())
        assert {"command", "blas", "blas_threads", "parent", "change"} <= set(record), path.name
        for side in ("parent", "change"):
            run = record[side]
            assert len(run["git_revision"]) == 40, (path.name, side)
            assert set(run["workloads"]) == set(workloads), (path.name, side)
            for name, out in run["workloads"].items():
                assert out["env"]["git_revision"] == run["git_revision"], (path.name, side, name)
                assert out["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
                assert out["result"]["correct"] is True, (path.name, side, name)
                assert "latency_p90_ms" in out["result"]["metrics"], (path.name, side, name)


def test_documented_variables_are_the_tolerance_fields():
    documented = set(re.findall(r"ALTITER_[A-Z_]+", (ROOT / "README.md").read_text()))
    documented |= set(re.findall(r"ALTITER_[A-Z_]+", cli.__doc__))
    assert documented == {ENV_PREFIX + f.name.upper() for f in fields(Tolerances)}


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
