"""The CLI's golden corpus: every file command on a fixed set of inputs.

Usage: python scripts/golden.py [--update]

Without --update it runs the corpus and lists every mismatch against
tests/golden/expected.json (exit 1 if there is one); tests/test_golden.py
runs the same check.  --update rewrites the expected results; it is their
only writer.

Inputs: `qeei random N --seed S` for N = 1..8 and S = 0..2, the worked
example, and the special files of tests/test_cli.py.  None is stored: each
is derived when it is needed (the compact JSON of its SPECIAL document or
of the `qeei random` output) and written to a temporary directory, in
which its commands run.  Commands: eig, det,
qadj, qadj --lambda 0.7, verify and vec --index i for every i, under
--format json (verify at n = 8 on seed 0 only), and each of them in the
default text format on the worked example.  Each result is the exit code,
stderr (when not empty) and the JSON report, or the text stdout.  The
report's `command`, `input_digest` and `matrix` follow from the argv and
the input file, so they are checked against those and not stored; its
floats are stored to DIGITS significant digits, far inside REL.  Results
that show a known defect name its ROADMAP item (KNOWN_DEFECTS).

Comparison: exit codes, the report's keys and types, its strings and
integers (status, pivot_index) must match exactly.  Floats match within
REL: each eigenvalue (`spectrum`, `lambda`) relative to itself, any other
field relative to its largest entry.  Residual fields are compared through
the report's `status` only.  stderr matches with its numbers under the same
REL, and text stdout byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from qeei import cli

EXPECTED = Path(__file__).resolve().parents[1] / "tests" / "golden" / "expected.json"

REL = 1e-12
DIGITS = 14
EIGENVALUES = {"spectrum", "lambda"}
RESIDUALS = {"residuals", "residual", "norm_dev"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def real_doc(re_rows):
    zero = [[0.0] * len(re_rows) for _ in re_rows]
    return {"n": len(re_rows), "re": re_rows, "im_i": zero, "im_j": zero,
            "im_k": zero}


def skew_doc(**parts):
    return {**real_doc([[0.0, 0.0], [0.0, 0.0]]), **parts}


# the worked example and the special files of tests/test_cli.py
SPECIAL = {
    "example": {"n": 2, "re": [[3, 0], [0, 2]], "im_i": [[0, 1], [-1, 0]],
                "im_j": [[0, -1], [1, 0]], "im_k": [[0, 1], [-1, 0]]},
    "huge120": real_doc([[1e120, 0.5, 0.1], [0.5, 2.0, 0.3], [0.1, 0.3, -1.0]]),
    "huge300-pivot": real_doc([[1e300, 0.5, 0.1], [0.5, 2.0, 0.3],
                               [0.1, 0.3, -1.0]]),
    "huge300": real_doc([[1e300, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]),
    "huge200": real_doc([[1e200, 1e200, 0.1], [1e200, 1.0, 0.1],
                         [0.1, 0.1, 1.0]]),
    "skew-tiny": skew_doc(re=[[1e-20, 2e-20], [2e-20, -1e-20]],
                          im_i=[[0.0, 3e-20], [-3e-20 + 1e-14, 0.0]]),
    "skew-huge": skew_doc(re=[[1e200, 1e200], [-1e200, 1.0]]),
}
RANDOM = [(n, seed) for n in range(1, 9) for seed in range(3)]

# (input, subcommand): the defect its recorded result shows, by ROADMAP item
HUGE200_PIVOT = ("ROADMAP item 4: qadj(lambda E - A) of the unscaled matrix "
                 "overflows, so PivotFailure (exit 4)")
KNOWN_DEFECTS = {("huge200", "vec"): HUGE200_PIVOT,
                 ("huge200", "verify"): HUGE200_PIVOT}


def random_name(n, seed):
    return f"random-n{n}-s{seed}"


def random_argv(n, seed):
    return ["random", str(n), "--seed", str(seed)]


def commands(name, n):
    """{label: argv} of every corpus command on input `name` of size n; the
    label is the argv without the file."""
    subcommands = [["eig"], ["det"], ["qadj"], ["qadj", "--lambda", "0.7"]]
    if name not in (random_name(8, 1), random_name(8, 2)):  # 0.4 s each
        subcommands.append(["verify"])
    subcommands += [["vec", "--index", str(i)] for i in range(1, n + 1)]
    formats = [["--format", "json"]] + ([[]] if name == "example" else [])
    return {" ".join(fmt + sub): fmt + sub[:1] + [f"{name}.json"] + sub[1:]
            for fmt in formats for sub in subcommands}


def run(argv, directory="."):
    """(exit code, stdout, stderr) of cli.main(argv) run in directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def input_bytes(name):
    """The input file `name`: the compact JSON of its SPECIAL document or of
    the output of `qeei random N --seed S`."""
    doc = SPECIAL.get(name)
    if doc is None:
        [(n, seed)] = [ns for ns in RANDOM if random_name(*ns) == name]
        code, out, err = run(random_argv(n, seed))
        if code != 0:
            raise SystemExit(f"qeei {' '.join(random_argv(n, seed))}: {err}")
        doc = json.loads(out)
    return json.dumps(doc, separators=(",", ":")).encode()


@contextlib.contextmanager
def input_directory(name):
    """A temporary directory holding input `name` as <name>.json; yields the
    directory and the input's n."""
    raw = input_bytes(name)
    with tempfile.TemporaryDirectory(prefix="qeei-golden-") as directory:
        Path(directory, f"{name}.json").write_bytes(raw)
        yield Path(directory), json.loads(raw)["n"]


def rounded(value):
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.{DIGITS}g}")
    return value


def result(directory, name, argv):
    """The result of one command on input `name` in directory, in the form
    stored, before rounding."""
    code, out, err = run(argv, directory)
    entry = {"exit": code}
    if err:
        entry["stderr"] = err
    if argv[0] != "--format":
        entry["stdout"] = out
    elif out:
        report = json.loads(out)
        raw = (directory / f"{name}.json").read_bytes()
        envelope = {"command": " ".join(argv),
                    "input_digest": hashlib.sha256(raw).hexdigest(),
                    "matrix": json.loads(raw)}
        entry["envelope"] = all(report.pop(key, None) == value
                                for key, value in envelope.items())
        entry["report"] = report
    return entry


def leaves(value, field=(), path=""):
    """(field, path, leaf) of every scalar in a JSON value; the field is the
    chain of dict keys above the leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, (*field, key), f"{path}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, field, f"{path}[{k}]")
    else:
        yield field, path, value


def floats_match(want, got, scale):
    if not (math.isfinite(want) and math.isfinite(got)):
        return str(want) == str(got)
    return abs(want - got) <= REL * scale


def report_mismatches(want, got):
    want_leaves, got_leaves = list(leaves(want)), list(leaves(got))
    if ([(path, type(v)) for _, path, v in want_leaves]
            != [(path, type(v)) for _, path, v in got_leaves]):
        return ["keys, lengths or types differ"]
    scales = {}
    for field, _, v in want_leaves:
        if isinstance(v, float) and math.isfinite(v):
            scales[field] = max(scales.get(field, 0.0), abs(v))
    bad = []
    for (field, path, a), (_, _, b) in zip(want_leaves, got_leaves):
        if RESIDUALS.intersection(field):
            continue
        if isinstance(a, float):
            scale = abs(a) if field[-1] in EIGENVALUES else scales[field]
            if not floats_match(a, b, scale):
                bad.append(f"{path}: {a!r} != {b!r}")
        elif a != b:
            bad.append(f"{path}: {a!r} != {b!r}")
    return bad


def text_mismatches(want, got):
    """The text outside the numbers must be equal, the numbers within REL."""
    if NUMBER.split(want) != NUMBER.split(got):
        return [f"{want!r} != {got!r}"]
    return [f"{a} != {b}"
            for a, b in zip(NUMBER.findall(want), NUMBER.findall(got))
            if not floats_match(float(a), float(b), abs(float(a)))]


def mismatches(want, got):
    """Every difference between an expected and an actual result."""
    bad = []
    if want["exit"] != got["exit"]:
        bad.append(f"exit {want['exit']} != {got['exit']}")
    bad += [f"stderr {m}" for m in text_mismatches(want.get("stderr", ""),
                                                   got.get("stderr", ""))]
    if want.get("stdout") != got.get("stdout"):
        bad.append(f"stdout {want.get('stdout')!r} != {got.get('stdout')!r}")
    if want.get("envelope") != got.get("envelope"):
        bad.append("command, input_digest or matrix echo differ")
    if ("report" in want) != ("report" in got):
        bad.append("a JSON report on one side only")
    elif "report" in want:
        bad += [f"report{m}" for m in report_mismatches(want["report"], got["report"])]
    return bad


def load_expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def check(name, entries):
    """Runs the stored commands of input `name`; returns one message per
    mismatch, or one message if the command list itself changed."""
    with input_directory(name) as (directory, n):
        argvs = commands(name, n)
        if list(argvs) != list(entries):
            return [f"{name}: the commands differ from the stored ones"]
        bad = []
        for label, want in entries.items():
            note = f" (known defect, {want['known_defect']})" if "known_defect" in want else ""
            bad += [f"{name}: {label}: {m}{note}"
                    for m in mismatches(want, result(directory, name, argvs[label]))]
    return bad


def update():
    blocks = []
    for name in [*SPECIAL, *(random_name(n, seed) for n, seed in RANDOM)]:
        lines = []
        with input_directory(name) as (directory, n):
            for label, argv in commands(name, n).items():
                entry = rounded(result(directory, name, argv))
                defect = KNOWN_DEFECTS.get((name, argv[argv.index(f"{name}.json") - 1]))
                if defect is not None:
                    entry["known_defect"] = defect
                lines.append(f"{json.dumps(label)}:{json.dumps(entry, separators=(',', ':'))}")
        blocks.append(f"{json.dumps(name)}:{{\n" + ",\n".join(lines) + "\n}")
    # one result per line, so an intended change is a readable diff
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the expected results")
    os.environ.pop("QEEI_TOL", None)  # the corpus runs at the default tolerance
    if parser.parse_args(argv).update:
        update()
        return 0
    bad = [m for name, entries in load_expected().items() for m in check(name, entries)]
    print("\n".join(bad) if bad else "golden corpus: all results match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
