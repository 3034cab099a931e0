"""Mutation analysis of src/altiter against tier-1: python3 tools/mutants.py > mutants.jsonl

A mutant changes one token of one file under src/altiter: a comparison
flipped at its boundary, + and - swapped, min and max (np.minimum and
np.maximum) swapped, a `not` dropped, or a Tolerances default times or over
10. For each, the files git would commit are copied to a temporary directory,
the token is replaced there, and tier-1 runs there without -x, two mutants
at a time, with the mutant's id in MUTANT_ID. Nothing is written under the
checkout. README.md ("Layout") says how to read the JSON record printed per
mutant; tools/survivors.jsonl classifies each mutant that tier-1 does not kill.
"""

import ast
import concurrent.futures
import decimal
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
TIMEOUT_FACTOR = 5  # times the unmutated tier-1 run
MUTANT_VARIABLE = "MUTANT_ID"  # names the mutant in the environment of its tier-1 run

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
SIGNS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
SWAPS = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum"}


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    line: int
    col: int  # 0-based
    old: str
    new: str  # "" drops the token

    @property
    def id(self):
        return f"{Path(self.path).name}:{self.line}:{self.col + 1}:{self.old}->{self.new}"


def _first(tokens, start, end, text=None):
    """The first token in [start, end) that spells text (any token if None)."""
    return next(t for t in tokens if start <= t.start < end and text in (None, t.string))


def _sites(tree, tokens):
    """(token, replacement) for each mutation of one parsed file."""
    def start(node):
        return node.lineno, node.col_offset

    def end(node):
        return node.end_lineno, node.end_col_offset

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    yield _first(tokens, end(left), start(right), old), new
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SIGNS:
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (
                node.target, node.value)
            old, new = SIGNS[type(node.op)]
            aug = "=" if isinstance(node, ast.AugAssign) else ""
            yield _first(tokens, end(left), start(right), old + aug), new + aug
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield _first(tokens, start(node), start(node.operand), "not"), ""
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            if getattr(node.func, "attr", None) in ("minimum", "maximum"):
                name = node.func.attr
            if name in SWAPS:
                yield _first(tokens, start(node.func), end(node.func), name), SWAPS[name]
        elif isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Constant):
                    token = _first(tokens, start(stmt.value), end(stmt.value))
                    for factor in (decimal.Decimal(10), decimal.Decimal("0.1")):
                        yield token, f"{(decimal.Decimal(token.string) * factor).normalize():e}"


def enumerate_mutants(source, path):
    """Every mutant of one file's source, in the order of its tokens."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME, tokenize.NUMBER)]
    found = {(t.start, new): t.string for t, new in _sites(ast.parse(source), tokens)}
    return [Mutant(path, line, col, old, new) for ((line, col), new), old in sorted(found.items())]


def all_mutants(root=ROOT):
    return [m for file in sorted((root / "src" / "altiter").glob("*.py"))
            for m in enumerate_mutants(file.read_text(), file.relative_to(root).as_posix())]


def apply(source, mutant):
    """The source with the mutant's token replaced; a dropped token takes its trailing blanks."""
    lines = source.splitlines(keepends=True)
    text = lines[mutant.line - 1]
    if text[mutant.col:mutant.col + len(mutant.old)] != mutant.old:
        raise ValueError(f"{mutant.id}: no {mutant.old!r} at that position")
    tail = text[mutant.col + len(mutant.old):]
    if not mutant.new:
        tail = tail.lstrip()
    lines[mutant.line - 1] = text[:mutant.col] + mutant.new + tail
    return "".join(lines)


# Hypothesis shrinks each failing example; a mutant that fails every property
# would spend minutes there, so the runs skip that phase. Verdicts stay.
PROFILE = ("from hypothesis import Phase, settings\n"
           "settings.register_profile('mutants', phases=[Phase.explicit, Phase.generate])\n")
COMMAND = ["-m", "pytest", "-v", "-p", "no:cacheprovider", "-p", "mutants_profile",
           "--hypothesis-profile=mutants", "--hypothesis-seed=0", "--continue-on-collection-errors"]
# "<test id> FAILED  [ 12%]" as each test ends; "ERROR <file> - ..." for a collection error
OUTCOME = re.compile(r"(.+?::.+?) (?:FAILED|ERROR)\s+\[\s*\d+%\]$|ERROR (\S+\.py)(?: - |$)")


def tier1(files, mutant=None, timeout=None):
    """(verdict, failing test ids, seconds) of tier-1 on a copy of files with the mutant."""
    with tempfile.TemporaryDirectory(prefix="altiter-mutant-") as tmp:
        copy = Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        (copy / "mutants_profile.py").write_text(PROFILE)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(copy / "src"))
        if mutant:
            (copy / mutant.path).write_text(apply((copy / mutant.path).read_text(), mutant))
            env[MUTANT_VARIABLE] = mutant.id
        began = time.monotonic()
        proc = subprocess.Popen([sys.executable, *COMMAND], cwd=copy, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            out = proc.communicate(timeout=timeout)[0]
            verdict = "killed" if proc.returncode else "survived"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, verdict = proc.communicate()[0], "timeout"
        seconds = time.monotonic() - began
    lines = out.splitlines()
    failed = {m[1] or m[2] for m in map(OUTCOME.match, lines) if m}
    if verdict == "timeout" and lines and "::" in lines[-1]:  # the test that was running
        failed.add(lines[-1].strip())
    if verdict == "killed" and not failed:  # the session failed outside any test
        failed = {f"exit {proc.returncode}"}
    return verdict, sorted(failed), seconds


def main():
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    files = [name for name in listed.split("\0") if name and (ROOT / name).is_file()]
    verdict, failed, seconds = tier1(files)
    if verdict != "survived":
        sys.exit(f"tier-1 fails on the unmutated tree: {failed}")
    mutants, began, counts = all_mutants(), time.monotonic(), {}
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        runs = pool.map(lambda m: tier1(files, m, TIMEOUT_FACTOR * seconds), mutants)
        for mutant, (verdict, failed, took) in zip(mutants, runs):
            counts[verdict] = counts.get(verdict, 0) + 1
            print(json.dumps({"id": mutant.id, "verdict": verdict, "failed": failed,
                              "seconds": round(took, 1)}), flush=True)
    print(f"{len(mutants)} mutants {counts} in {time.monotonic() - began:.0f} s; "
          f"unmutated tier-1 {seconds:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
