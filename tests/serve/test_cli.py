"""``repro-serve`` CLI: every subcommand, against the golden corpus."""

from __future__ import annotations

import pytest

from repro.sched import ALL_POLICIES
from repro.serve.cli import main

GOLDEN = "tests/corpus/adversarial-boundary.json"


class TestReplay:
    def test_golden_replay_with_parity_certificate(self, capsys):
        status = main(
            ["replay", GOLDEN, "--policy", "split", "--chunks", "3"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "serve parity OK" in out
        assert "bit-identical" in out

    def test_no_parity_skips_the_certificate(self, capsys):
        status = main(["replay", GOLDEN, "--no-parity"])
        out = capsys.readouterr().out
        assert status == 0
        assert "serve parity" not in out

    def test_library_workload_is_planned(self, capsys):
        status = main(
            [
                "replay",
                "websearch",
                "--duration",
                "5",
                "--policy",
                "miser",
                "--chunks",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "miser on WebSearch" in out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["replay", "nosuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestLive:
    def test_live_runs_the_shadow_autoscaler(self, capsys):
        status = main(
            ["live", "--rate", "20", "--duration", "8", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "autoscaler:" in out
        assert "live-poisson-3" in out

    def test_empty_live_trace_exits_1(self, capsys):
        status = main(
            ["live", "--rate", "0.0001", "--duration", "0.1"]
        )
        assert status == 1
        assert "empty" in capsys.readouterr().out


class TestChaos:
    def test_chaos_reports_post_fault_compliance(self, capsys):
        status = main(
            ["chaos", GOLDEN, "--policy", "split", "--chunks", "2"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "post-fault q1 compliance" in out

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_chaos_inputs_match_run_chaos(self, monkeypatch, policy):
        """``repro-serve chaos`` and ``run_chaos`` share one recipe: the
        same seed gives the same schedule, retry policy and adaptive
        choice."""
        import repro.faults.harness as faults_harness
        import repro.serve.cli as cli
        from repro.check.corpus import load_golden
        from repro.faults import run_chaos

        captured = {}

        class Captured(Exception):
            pass

        def capture(side):
            def fake(*args, **kwargs):
                captured[side] = kwargs
                raise Captured

            return fake

        monkeypatch.setattr(cli, "ServiceHarness", capture("cli"))
        monkeypatch.setattr(faults_harness, "run_resilient", capture("run_chaos"))
        with pytest.raises(Captured):
            main(["chaos", GOLDEN, "--policy", policy, "--seed", "5"])
        golden = load_golden(GOLDEN)
        with pytest.raises(Captured):
            run_chaos(
                golden.workload(), policy, golden.capacity, golden.delta_c,
                golden.delta, seed=5,
            )
        cli_side, chaos_side = captured["cli"], captured["run_chaos"]
        assert cli_side["faults"].events == chaos_side["schedule"].events
        assert cli_side["faults"].events
        assert cli_side["retry"] == chaos_side["retry"]
        assert cli_side["adaptive"] == chaos_side["adaptive"]
        assert cli_side["seed"] == chaos_side["seed"] == 5


class TestPlace:
    def test_place_prints_the_deadline_accounting(self, capsys):
        status = main(
            [
                "place",
                "--nodes",
                "near:50:0.005,far:200:0.03",
                "--cmin",
                "20",
                "--delta-c",
                "5",
                "--delta",
                "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "Q1 -> near" in out
        assert "latency tax" in out

    @pytest.mark.parametrize(
        "nodes", ["near", "a:b:c:d", "near:notanumber"]
    )
    def test_bad_node_specs_exit_2(self, capsys, nodes):
        status = main(
            ["place", "--nodes", nodes, "--cmin", "20"]
        )
        capsys.readouterr()
        assert status == 2
