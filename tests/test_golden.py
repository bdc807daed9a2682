"""The CLI against its golden corpus in tests/golden, recorded and checked
by scripts/golden.py (rewrite it with `python scripts/golden.py --update`)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

EXPECTED = golden.load_expected()


def test_corpus_covers_every_input():
    assert list(EXPECTED) == list(golden.SPECIAL) + [
        golden.random_name(n, seed) for n, seed in golden.RANDOM]


@pytest.mark.parametrize("name", list(EXPECTED))
def test_golden_results(name, monkeypatch):
    monkeypatch.delenv("QEEI_TOL", raising=False)
    assert golden.check(name, EXPECTED[name]) == []
