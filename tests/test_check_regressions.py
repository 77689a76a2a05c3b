"""The regression gate (``python -m benchmarks.check_regressions``).

The runner is driven with synthetic families in a tmp directory, so no
timing run happens here; the real family table is checked against the
committed ``benchmarks/BENCH_*.json`` files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks import check_regressions as gate
from benchmarks.kernels import FAMILIES, Claim, Family

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def _family(kernels, claims=()) -> Family:
    return Family("fake", kernels, workload={"n": 4},
                  timing=frozenset({"median_ms"}), claims=claims)


def _kernel(seconds=0.2, tasks=12, median_ms=1.0, suite=None):
    def kernel() -> dict:
        out = {"seconds": seconds, "tasks": tasks, "median_ms": median_ms}
        if suite is not None:
            out["suite"] = list(suite)
        return out

    return kernel


def _write(tmp_path, family) -> dict:
    assert gate.run([family], tmp_path, update=True) == 0
    return json.loads((tmp_path / "BENCH_fake.json").read_text())


class TestRunner:
    def test_update_writes_the_payload_and_the_check_passes(self, tmp_path):
        family = _family({"k": _kernel(suite=[{"row": 1}])})
        payload = _write(tmp_path, family)
        assert payload == {
            "schema": 1,
            "kernels": {"k": {"seconds": 0.2, "tasks": 12, "median_ms": 1.0}},
            "workload": {"n": 4},
            "suite": [{"row": 1}],
        }
        assert gate.run([family], tmp_path, update=False) == 0

    def test_timing_fields_may_move(self, tmp_path):
        _write(tmp_path, _family({"k": _kernel()}))
        moved = _family({"k": _kernel(median_ms=3.7)})
        assert gate.run([moved], tmp_path, update=False) == 0

    def test_counter_drift_fails(self, tmp_path, capsys):
        _write(tmp_path, _family({"k": _kernel()}))
        drifted = _family({"k": _kernel(tasks=13)})
        assert gate.run([drifted], tmp_path, update=False) == 1
        assert "'tasks' drifted (13 vs baseline 12" in capsys.readouterr().out

    def test_a_new_field_is_drift_too(self, tmp_path, capsys):
        _write(tmp_path, _family({"k": _kernel()}))
        grown = _family({"k": lambda: {**_kernel()(), "extra": 1}})
        assert gate.run([grown], tmp_path, update=False) == 1
        assert "'extra' drifted" in capsys.readouterr().out

    def test_seconds_above_the_threshold_fail(self, tmp_path, capsys):
        _write(tmp_path, _family({"k": _kernel(seconds=0.2)}))
        within = _family({"k": _kernel(seconds=0.2 * gate.THRESHOLD)})
        assert gate.run([within], tmp_path, update=False) == 0
        slow = _family({"k": _kernel(seconds=0.2 * gate.THRESHOLD * 1.01)})
        assert gate.run([slow], tmp_path, update=False) == 1
        assert "k: 4.04x slower than baseline" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        assert gate.run([_family({"k": _kernel()})], tmp_path,
                        update=False) == 2
        assert "no baseline at" in capsys.readouterr().out

    def test_a_regression_outranks_a_missing_baseline(self, tmp_path):
        _write(tmp_path, _family({"k": _kernel()}))
        other = Family("other", {"k": _kernel()}, workload={})
        drifted = _family({"k": _kernel(tasks=13)})
        assert gate.run([drifted, other], tmp_path, update=False) == 1

    def test_update_refuses_a_baseline_whose_claims_fail(self, tmp_path,
                                                         capsys):
        claim = Claim("k", "tasks", ">=", 20, "enough tasks")
        family = _family({"k": _kernel()}, claims=(claim,))
        assert gate.run([family], tmp_path, update=True) == 1
        assert not (tmp_path / "BENCH_fake.json").exists()
        out = capsys.readouterr().out
        assert "k: tasks = 12, needs >= 20 (enough tasks)" in out

    def test_claims_are_checked_without_update_too(self, tmp_path):
        _write(tmp_path, _family({"k": _kernel()}))
        claim = Claim("k", "tasks", "==", lambda k: k["tasks"] + 1, "derived")
        family = _family({"k": _kernel()}, claims=(claim,))
        assert gate.run([family], tmp_path, update=False) == 1

    def test_baseline_kernel_missing_from_the_fresh_run_fails(self, tmp_path,
                                                              capsys):
        _write(tmp_path, _family({"k": _kernel(), "gone": _kernel()}))
        assert gate.run([_family({"k": _kernel()})], tmp_path,
                        update=False) == 1
        assert "gone: in the committed baseline but not run" in (
            capsys.readouterr().out
        )

    def test_fresh_kernel_without_baseline_fails(self, tmp_path, capsys):
        _write(tmp_path, _family({"k": _kernel()}))
        grown = _family({"k": _kernel(), "new": _kernel()})
        assert gate.run([grown], tmp_path, update=False) == 1
        assert "new: no committed baseline" in capsys.readouterr().out

    def test_only_two_flags(self):
        with pytest.raises(SystemExit):
            gate.main(["--threshold", "4"])
        with pytest.raises(SystemExit):
            gate.main(["--skip-legacy"])


def _past(op: str, bound):
    """A value that breaks ``<op> bound``."""
    if isinstance(bound, list):
        return bound + bound[-1:]
    if op in (">=", ">"):
        return bound - 1
    return bound + 1  # "<", "<=", "==" (True + 1 == 2 for booleans)


CLAIMS = [(family, claim) for family in FAMILIES for claim in family.claims]


@pytest.mark.parametrize(
    "family, claim", CLAIMS,
    ids=[f"{f.name}-{c.kernel}-{c.field}" for f, c in CLAIMS],
)
def test_committed_baselines_pass_each_claim_and_fail_past_its_bound(
    family, claim
):
    committed = json.loads(
        (BENCH_DIR / f"BENCH_{family.name}.json").read_text()
    )["kernels"]
    only = family._replace(claims=(claim,))
    assert claim.field in committed[claim.kernel]
    assert gate.check_claims(only, committed) == []
    kernel = dict(committed[claim.kernel])
    bound = claim.bound(kernel) if callable(claim.bound) else claim.bound
    kernel[claim.field] = _past(claim.op, bound)
    (failure,) = gate.check_claims(only, {**committed, claim.kernel: kernel})
    assert failure.startswith(f"{claim.kernel}: {claim.field} = ")


def test_every_family_has_a_committed_baseline_and_nothing_else_does():
    committed = sorted(p.stem[len("BENCH_"):]
                       for p in BENCH_DIR.glob("BENCH_*.json"))
    assert committed == sorted(family.name for family in FAMILIES)
    for family in FAMILIES:
        payload = json.loads(
            (BENCH_DIR / f"BENCH_{family.name}.json").read_text()
        )
        assert sorted(payload["kernels"]) == sorted(family.kernels)
        assert payload["workload"] == family.workload
