"""Every example script must run clean, in process (user-facing smoke)."""

import runpy
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((_REPO / "examples").glob("*.py"))


def _run(script: Path, tmp_path, monkeypatch, capsys) -> str:
    """Run ``script`` as ``__main__`` from ``tmp_path`` (artefacts such as
    svg/json files land there); returns what it printed."""
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, tmp_path, monkeypatch, capsys):
    out = _run(script, tmp_path, monkeypatch, capsys)
    assert out.strip(), "examples must narrate what they do"


def test_example_inventory():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3, "the paper repro ships at least three examples"


def test_quickstart_prints_paper_numbers(tmp_path, monkeypatch, capsys):
    script = next(p for p in EXAMPLES if p.stem == "quickstart")
    assert "14" in _run(script, tmp_path, monkeypatch, capsys)  # the paper's makespan


def test_pipeline_chain_writes_into_its_working_directory(
    tmp_path, monkeypatch, capsys
):
    script = next(p for p in EXAMPLES if p.stem == "pipeline_chain")
    _run(script, tmp_path, monkeypatch, capsys)
    assert {p.name for p in tmp_path.iterdir()} >= {
        "pipeline_chain.svg", "pipeline_chain.json",
    }
