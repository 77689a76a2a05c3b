"""Each entry point loads only the code it runs.

``repro serve`` (solo, and so every fleet worker), the fleet router and
``repro batch`` import at start-up what an offline request runs -- the
kernels, the tree solver, canon, the store, the replay validator and the
encoder -- and none of :data:`UNUSED`.  Once a server is ready, and once a
batch's rows start, a request or a row loads no ``repro`` module: nothing
an offline request uses is paid after ready or inside a row's timer.

Every test runs fresh interpreters.  Under ``-X importtime`` an
interpreter writes one stderr line per module as it first imports it, so
the lines written before a server answered its first ping are its
start-up.  Public names of the lazily exporting packages
(:mod:`repro._lazy`) must be the objects their submodules define, in
whichever order the two are imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from repro.io.json_io import platform_to_dict
from repro.platforms.chain import Chain
from repro.platforms.generators import random_tree
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: what no offline entry point may load (a package covers its submodules)
UNUSED = (
    "repro.viz",
    "repro.baselines",
    "repro.analysis.report",
    "repro.analysis.regret",
    "repro.sim.online",
    "repro.sim.churn",
    "repro.solve.repatch",
    "repro.core.fork",
    "repro.core.spider",
    "importlib.metadata",
    "concurrent.futures.process",
)

#: packages whose names load their submodule on first use
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.service",
                 "repro.sim")

#: (platform, relabeled isomorph) per platform kind: the second request of
#: each pair is a store hit rebound onto new labels
PLATFORMS = (
    (Chain([2, 3], [3, 5]), Chain([2, 3], [3, 5])),
    (Star([(2, 3), (1, 5), (3, 2)]), Star([(3, 2), (1, 5), (2, 3)])),
    (Spider([Chain([1, 2], [4, 3]), Chain([2], [5])]),
     Spider([Chain([2], [5]), Chain([1, 2], [4, 3])])),
    (Tree([(0, 1, 1, 4), (1, 2, 2, 3), (0, 3, 2, 5), (3, 4, 1, 6)]),
     Tree([(0, 7, 2, 5), (7, 9, 1, 6), (0, 5, 1, 4), (5, 8, 2, 3)])),
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    return env


def _imported(importtime: str) -> set[str]:
    """The modules an ``-X importtime`` stderr text reports."""
    return {line.rpartition("|")[2].strip()
            for line in importtime.splitlines()
            if line.startswith("import time:") and "|" in line} - {
                "imported package"}


@lru_cache(maxsize=None)
def _bare() -> frozenset[str]:
    """What a bare interpreter loads here (site hooks included)."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                         env=_env(), capture_output=True, text=True,
                         check=True).stderr
    return frozenset(_imported(err))


def _unused(modules: set[str]) -> list[str]:
    return sorted(m for m in modules - _bare()
                  if any(m == u or m.startswith(u + ".") for u in UNUSED))


def _new_repro(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == "repro")


def _solve_lines() -> list[tuple[str, bool]]:
    """(request line, whether it must be a store hit) for a makespan and
    a deadline question on each platform: a miss, then a relabeled hit."""
    lines = []
    for platform, relabeled in PLATFORMS:
        for question in ({"kind": "makespan", "n": 12},
                         {"kind": "deadline", "t_lim": 30}):
            for hit, shape in ((False, platform), (True, relabeled)):
                problem = {"platform": platform_to_dict(shape), **question}
                lines.append((json.dumps({"id": len(lines), "op": "solve",
                                          "problem": problem}), hit))
    return lines


class _Serve:
    """``repro serve ARGS`` over stdio under ``-X importtime``."""

    def __init__(self, tmp_path: Path, *args: str) -> None:
        self.err = tmp_path / "importtime.txt"
        with open(self.err, "wb") as fh:
            self.proc = subprocess.Popen(
                [sys.executable, "-X", "importtime", "-m", "repro", "serve",
                 *args],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=fh,
                env=_env(), text=True)

    def ask(self, request: dict | str) -> dict:
        line = request if isinstance(request, str) else json.dumps(request)
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def loaded(self) -> set[str]:
        return _imported(self.err.read_text())

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.ask({"id": "bye", "op": "shutdown"})
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()


class TestServe:
    def test_ready_loads_no_unused_code_and_requests_load_nothing(
            self, tmp_path):
        server = _Serve(tmp_path)
        try:
            assert server.ask({"id": "hi", "op": "ping"})["pong"]
            ready = server.loaded()
            assert _unused(ready) == []
            for line, hit in _solve_lines():
                response = server.ask(line)
                assert response["ok"], response
                assert response["cached"] is hit, line
            assert _new_repro(server.loaded() - ready) == []
        finally:
            server.close()

    def test_router_start_up_loads_no_unused_code(self, tmp_path):
        router = _Serve(tmp_path, "--shards", "1", "--workers", "1")
        try:
            assert router.ask({"id": "hi", "op": "ping"})["pong"]
            deadline = time.monotonic() + 60
            while router.ask({"id": "st", "op": "stats"})["stats"][
                    "live_shards"] != [0]:
                assert time.monotonic() < deadline, "the worker never came up"
                time.sleep(0.05)
            ready = router.loaded()
            assert _unused(ready) == []
            line, _ = _solve_lines()[-1]
            assert router.ask(line)["ok"]
            assert _new_repro(router.loaded() - ready) == []
        finally:
            router.close()


#: runs ``repro batch ARGV`` and reports what its groups of rows imported
_ROWS_SCRIPT = """
import json, sys
import repro.batch.runner as runner
from repro.cli import main

run_group, loaded = runner.run_group, set()

def recording(group, **kwargs):
    before = set(sys.modules)
    rows = run_group(group, **kwargs)
    loaded.update(set(sys.modules) - before)
    return rows

runner.run_group = recording
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(loaded)}))
"""


class TestBatch:
    @staticmethod
    def scenarios(tmp_path: Path, scenarios: list[dict]) -> str:
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"schema": 1, "scenarios": scenarios}))
        return str(path)

    def test_one_scenario_batch_loads_no_unused_code(self, tmp_path):
        path = self.scenarios(tmp_path, [{
            "id": "one", "platform": platform_to_dict(Chain([1], [1])),
            "kind": "makespan", "n": 1}])
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "batch",
             "--scenarios", path, "--validate"],
            env=_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stdout
        assert _unused(_imported(run.stderr)) == []

    def test_tree_batch_rows_load_nothing(self, tmp_path):
        scenarios = []
        for seed in range(4):
            tree = platform_to_dict(random_tree(8, seed=seed))
            scenarios += [
                {"id": f"m{seed}", "platform": tree, "kind": "makespan",
                 "n": 10},
                {"id": f"d{seed}", "platform": tree, "kind": "deadline",
                 "t_lim": 40}]
        run = subprocess.run(
            [sys.executable, "-c", _ROWS_SCRIPT, "batch",
             "--scenarios", self.scenarios(tmp_path, scenarios), "--validate"],
            env=_env(), capture_output=True, text=True, timeout=120)
        report = json.loads(run.stdout.splitlines()[-1])
        assert report["code"] == 0, run.stdout
        assert _new_repro(set(report["loaded"])) == []


#: prints every public name of LAZY_PACKAGES that is not the object its
#: submodule defines, after importing the modules named in ``argv`` first
_NAMES_SCRIPT = """
import importlib, inspect, json, sys, types
for name in sys.argv[2:]:
    importlib.import_module(name)
wrong = []
for package in json.loads(sys.argv[1]):
    module = importlib.import_module(package)
    for name in set(module.__all__) - {"__version__"}:
        value = getattr(module, name)
        where = f"{package}.{module._lazy_origins[name]}"
        source = importlib.import_module(where)
        if (isinstance(value, types.ModuleType)
                or value is not getattr(source, name)
                or (inspect.isclass(value) or inspect.isfunction(value))
                and not value.__module__.startswith(where)):
            wrong.append(f"{package}.{name}: {value!r}")
print(json.dumps(wrong))
"""


class TestPublicNames:
    @pytest.mark.parametrize("first", [
        (),
        ("repro.analysis.steady_state", "repro.analysis.regret"),
        ("repro.solve", "repro.sim.online", "repro.core.chain"),
    ])
    def test_names_are_their_submodules_objects(self, first):
        run = subprocess.run(
            [sys.executable, "-c", _NAMES_SCRIPT,
             json.dumps(LAZY_PACKAGES), *first],
            env=_env(), capture_output=True, text=True, check=True)
        assert json.loads(run.stdout) == []

    def test_every_exported_name_has_a_source(self):
        import importlib

        for package in LAZY_PACKAGES:
            module = importlib.import_module(package)
            assert set(module.__all__) - {"__version__"} == set(
                module._lazy_origins), package
            assert len(module.__all__) == len(set(module.__all__)), package
