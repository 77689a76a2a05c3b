"""CLI tests — every subcommand exercised through main()."""

import pytest

from repro.cli import main
from repro.io.json_io import load_schedule, save_platform
from repro.platforms.chain import Chain


class TestFig2Command:
    def test_prints_paper_numbers(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "makespan: 14" in out
        assert "[3, 6, 8, 10, 12]" in out

    def test_gantt_flag(self, capsys):
        main(["fig2", "--gantt"])
        out = capsys.readouterr().out
        assert "proc 1" in out


class TestScheduleCommands:
    def test_chain(self, capsys):
        assert main(["chain", "--c", "2,3", "--w", "3,5", "-n", "5"]) == 0
        assert "makespan: 14" in capsys.readouterr().out

    def test_spider(self, capsys):
        assert main(["spider", "--leg", "2/3,3/5", "--leg", "1/4", "-n", "6"]) == 0
        assert "makespan:" in capsys.readouterr().out

    def test_star(self, capsys):
        assert main(["star", "--child", "2/3", "--child", "1/5", "-n", "4"]) == 0
        assert "makespan:" in capsys.readouterr().out

    def test_svg_and_json_outputs(self, capsys, tmp_path):
        svg = tmp_path / "x.svg"
        js = tmp_path / "x.json"
        main(["chain", "--c", "2", "--w", "3", "-n", "2",
              "--svg", str(svg), "--json", str(js)])
        assert svg.read_text().startswith("<svg")
        assert load_schedule(js).n_tasks == 2

    def test_platform_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_platform(Chain(c=(2, 3), w=(3, 5)), path)
        assert main(["chain", "--platform", str(path), "-n", "5"]) == 0
        assert "makespan: 14" in capsys.readouterr().out

    def test_missing_platform_errors(self):
        with pytest.raises(SystemExit):
            main(["chain", "-n", "3"])

    def test_float_values_parse(self, capsys):
        assert main(["chain", "--c", "1.5", "--w", "2.5", "-n", "2"]) == 0


class TestAnalysisCommands:
    def test_compare_lists_all_heuristics(self, capsys):
        assert main(["compare", "--c", "2,3", "--w", "3,5", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "optimal (paper)" in out
        for name in ("master_only", "round_robin", "greedy_mct"):
            assert name in out

    def test_compare_on_star(self, capsys):
        assert main(["compare", "--child", "1/2", "--child", "2/1", "-n", "5"]) == 0
        assert "x1.000" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--c", "2,3", "--w", "3,5", "-n", "5",
                     "--policy", "demand_driven"]) == 0
        out = capsys.readouterr().out
        assert "policy: demand_driven" in out
        assert "tasks: 5" in out

    def test_steady_chain(self, capsys):
        assert main(["steady", "--c", "2,3", "--w", "3,5"]) == 0
        assert "1/2" in capsys.readouterr().out

    def test_steady_star(self, capsys):
        assert main(["steady", "--child", "1/2", "--child", "4/1"]) == 0
        assert "5/8" in capsys.readouterr().out

    def test_steady_spider(self, capsys):
        assert main(["steady", "--leg", "2/3,3/5", "--leg", "1/4"]) == 0
        assert "throughput" in capsys.readouterr().out


class TestExtendedCommands:
    def test_tree(self, capsys):
        assert main(["tree", "--workers", "6", "-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "cover" in out and "makespan" in out

    def test_tree_dot(self, capsys):
        assert main(["tree", "--workers", "5", "-n", "6", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_failures_star(self, capsys):
        assert main(["failures", "--child", "1/3", "--child", "2/2",
                     "-n", "8", "--kill", "3@1"]) == 0
        out = capsys.readouterr().out
        assert "completed: 8" in out
        assert "reissues:" in out

    def test_failures_spider_tuple_proc(self, capsys):
        assert main(["failures", "--leg", "1/4,2/3", "--leg", "5/7",
                     "-n", "10", "--kill", "6@1,2"]) == 0
        assert "survivors" in capsys.readouterr().out

    def test_failures_none(self, capsys):
        assert main(["failures", "--child", "1/2", "-n", "4"]) == 0
        assert "reissues: 0" in capsys.readouterr().out

    def test_fig7_dot(self, capsys):
        assert main(["fig7", "--c", "2,3", "--w", "3,5", "--tlim", "14"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        for value in (3, 6, 8, 10, 12):
            assert f'label="{value}"' in out

    def test_fig7_rejects_star(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--child", "1/2", "--tlim", "10"])


class TestBatchCommand:
    def _scenario_file(self, tmp_path):
        import json

        from repro.io.json_io import platform_to_dict
        from repro.platforms.generators import random_spider

        pdict = platform_to_dict(random_spider(3, 2, seed=7))
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [
                {"id": "mk", "platform": pdict, "kind": "makespan", "n": 5},
                {"id": "dl", "platform": pdict, "kind": "deadline", "t_lim": 20},
            ],
        }))
        return path

    def test_batch_runs_and_reports(self, capsys, tmp_path):
        path = self._scenario_file(tmp_path)
        assert main(["batch", "--scenarios", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios ok" in out
        assert "mk" in out and "dl" in out

    def test_batch_writes_results_json(self, capsys, tmp_path):
        import json

        path = self._scenario_file(tmp_path)
        out_path = tmp_path / "results.json"
        assert main(["batch", "--scenarios", str(path),
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert {r["scenario_id"] for r in payload["results"]} == {"mk", "dl"}
        assert all(r["ok"] for r in payload["results"])

    def test_batch_nonzero_exit_on_failure(self, capsys, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [
                {"id": "broken", "kind": "makespan", "n": 2,
                 "platform": {"kind": "spider", "legs": []}},
            ],
        }))
        assert main(["batch", "--scenarios", str(path)]) == 1
        assert "0/1 scenarios ok" in capsys.readouterr().out

    def test_batch_summary_reports_obs_dispatches(self, capsys, tmp_path):
        path = self._scenario_file(tmp_path)
        assert main(["batch", "--scenarios", str(path)]) == 0
        assert "obs: 2 solve dispatches" in capsys.readouterr().out

    def test_batch_profile_writes_machine_readable_json(
        self, capsys, tmp_path
    ):
        import json

        path = self._scenario_file(tmp_path)
        prof = tmp_path / "prof.out"
        assert main(["batch", "--scenarios", str(path),
                     "--profile", str(prof)]) == 0
        assert prof.exists()
        payload = json.loads((tmp_path / "prof.out.json").read_text())
        assert payload["schema"] == 1
        assert payload["total_seconds"] >= 0
        assert payload["total_calls"] > 0
        assert 0 < len(payload["functions"]) <= 25
        top = payload["functions"][0]
        assert set(top) == {"file", "line", "name", "ncalls",
                            "primitive_calls", "tottime", "cumtime"}
        # sorted by cumulative time, heaviest first
        cums = [f["cumtime"] for f in payload["functions"]]
        assert cums == sorted(cums, reverse=True)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["warp"])


class TestTreeCommand:
    def test_tree_deadline_mode_names_the_method(self, capsys):
        assert main(["tree", "--workers", "9", "--profile", "cpu_heavy",
                     "--seed", "310", "-n", "40", "--tlim", "120"]) == 0
        out = capsys.readouterr().out
        assert "answered by the construction" in out
        assert "tasks by Tlim=120: 40" in out
        assert "efficiency against it (an upper bound)" in out

    @pytest.mark.parametrize("flag", [["--rounds", "1"],
                                      ["--strategy", "widest"],
                                      ["--residual", "widest"]])
    def test_retired_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["tree", "--workers", "6", "-n", "8", *flag])
        assert exc.value.code == 2

    def test_tree_platform_file(self, capsys, tmp_path):
        from repro.platforms.generators import random_tree

        path = tmp_path / "tree.json"
        save_platform(random_tree(5, seed=3), path)
        assert main(["tree", "--platform", str(path), "-n", "6"]) == 0
        assert "5 workers" in capsys.readouterr().out

    def test_tree_rejects_non_tree_platform(self, tmp_path):
        path = tmp_path / "chain.json"
        save_platform(Chain(c=(2,), w=(3,)), path)
        with pytest.raises(SystemExit):
            main(["tree", "--platform", str(path), "-n", "4"])


class TestSolverRegistryHelp:
    def test_batch_help_lists_registered_solvers(self, capsys):
        from repro.solve import registered_solvers

        with pytest.raises(SystemExit):
            main(["batch", "--help"])
        out = capsys.readouterr().out
        for solver in registered_solvers():
            assert solver.name in out
        assert "solver registry" in out

    def test_no_solve_ladders_left(self):
        """The acceptance guard: cli.py and batch/runner.py must contain no
        per-platform isinstance/elif solve ladders (the registry is the only
        platform dispatch)."""
        import inspect

        import repro.batch.runner as runner_mod
        import repro.cli as cli_mod

        for mod in (cli_mod, runner_mod):
            source = inspect.getsource(mod)
            assert "isinstance(platform, Chain)" not in source
            assert "isinstance(platform, Star)" not in source
            assert "elif isinstance" not in source

    def test_batch_cli_runs_tree_scenarios(self, capsys, tmp_path):
        import json

        from repro.io.json_io import platform_to_dict
        from repro.platforms.generators import random_tree

        pdict = platform_to_dict(random_tree(8, profile="cpu_heavy", seed=316))
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [
                {"id": "tree-mk", "platform": pdict, "kind": "makespan", "n": 6},
                {"id": "tree-dl", "platform": pdict, "kind": "deadline",
                 "t_lim": 90},
            ],
        }))
        assert main(["batch", "--scenarios", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios ok" in out
        assert "tree-mk" in out and "tree-dl" in out


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # semantic-version shaped: at least major.minor with digits
        version = out.split()[1]
        parts = version.split(".")
        assert len(parts) >= 2 and parts[0].isdigit()


class TestExitCodes:
    """The CLI's documented error exit codes, pinned."""

    def test_constants_are_distinct_and_documented(self):
        from repro.cli import (
            EXIT_FAILURE,
            EXIT_INFEASIBLE,
            EXIT_NO_SOLVER,
            EXIT_OK,
            EXIT_USAGE,
            EXIT_VALIDATION,
        )

        codes = [EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_NO_SOLVER,
                 EXIT_INFEASIBLE, EXIT_VALIDATION]
        assert codes == [0, 1, 2, 3, 4, 5]

    def test_no_solver_registered_exits_3(self, capsys):
        from repro.solve.registry import _REGISTRY

        saved = _REGISTRY.pop(("offline", Chain))
        try:
            rc = main(["chain", "--c", "2,3", "--w", "3,5", "-n", "5"])
        finally:
            _REGISTRY[("offline", Chain)] = saved
        assert rc == 3
        assert "no registered solver" in capsys.readouterr().err

    def test_infeasible_exits_4(self, capsys, monkeypatch):
        from repro.core.types import InfeasibleScheduleError

        def explode(problem):
            raise InfeasibleScheduleError(["port overlap at t=3"])

        monkeypatch.setattr("repro.cli.solve", explode)
        rc = main(["chain", "--c", "2,3", "--w", "3,5", "-n", "5"])
        assert rc == 4
        assert "infeasible" in capsys.readouterr().err

    def test_validation_failed_exits_5(self, capsys, monkeypatch):
        from repro.solve.problem import ValidationError

        def explode(problem):
            raise ValidationError("makespan drifted under replay")

        monkeypatch.setattr("repro.cli.solve", explode)
        rc = main(["chain", "--c", "2,3", "--w", "3,5", "-n", "5"])
        assert rc == 5
        assert "drifted" in capsys.readouterr().err


class TestBatchCache:
    def _scenario_file(self, tmp_path):
        import json

        from repro.io.json_io import platform_to_dict
        from repro.platforms.spider import Spider

        legs = [Chain([2, 3], [3, 5]), Chain([1], [4])]
        pdict = platform_to_dict(Spider(legs))
        relabeled = platform_to_dict(Spider(legs[::-1]))
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [
                {"id": "mk-a", "platform": pdict, "kind": "makespan", "n": 8},
                {"id": "mk-b", "platform": relabeled, "kind": "makespan",
                 "n": 8},
                {"id": "dl-a", "platform": pdict, "kind": "deadline",
                 "t_lim": 30},
            ],
        }))
        return path

    def test_cache_flag_reports_hits(self, capsys, tmp_path):
        path = self._scenario_file(tmp_path)
        cache = tmp_path / "cache.sqlite"
        assert main(["batch", "--scenarios", str(path),
                     "--cache", str(cache), "--validate"]) == 0
        out = capsys.readouterr().out
        # mk-b is isomorphic to mk-a: served from cache on the first run
        assert "(1 cache hits)" in out
        # second run: everything is in the persistent store
        assert main(["batch", "--scenarios", str(path),
                     "--cache", str(cache), "--validate"]) == 0
        assert "(3 cache hits)" in capsys.readouterr().out

    def test_cached_flag_lands_in_results_json(self, tmp_path):
        import json

        path = self._scenario_file(tmp_path)
        out_path = tmp_path / "results.json"
        assert main(["batch", "--scenarios", str(path),
                     "--cache", str(tmp_path / "c.sqlite"),
                     "--out", str(out_path)]) == 0
        results = {r["scenario_id"]: r
                   for r in json.loads(out_path.read_text())["results"]}
        assert results["mk-a"]["cached"] is False
        assert results["mk-b"]["cached"] is True


class TestServeParser:
    def test_serve_help_mentions_protocol(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--store" in out and "--tcp" in out and "--workers" in out


class TestImportFootprint:
    def test_cli_import_does_not_load_networkx(self):
        """``repro`` keeps trees as a parent map: importing the CLI (what
        every worker (re)start pays) must not pull in networkx."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('networkx' in sys.modules)"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        assert out.strip() == "False"
