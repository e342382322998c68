"""Tests for the command-line interface: outputs, artifacts, exit codes."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from fuselab.cli import build_parser, main
from fuselab.data import gen_dataset
from fuselab.experiment import drop_heatmap
from fuselab.model import DecoderModel, ModelConfig, load_checkpoint, save_checkpoint
from fuselab.tensor import load_tensor

from .test_config import MISTYPED, MISTYPED_IDS


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "n_blocks": 2,
                "d_model": 16,
                "d_in": 8,
                "rank": 2,
                "n_train": 64,
                "n_test": 32,
                "steps": 6,
                "batch_size": 4,
                "seed": 3,
            }
        )
    )
    return path


class TestFlopsCommand:
    def test_table_output(self, capsys):
        assert main(["flops", "--L", "256", "--N", "320", "--d", "4096"]) == 0
        out = capsys.readouterr().out
        assert "19,998,441,472" in out
        assert "671,088,640" in out
        assert "29.8000" in out

    def test_json_output(self, capsys):
        assert main(["flops", "--L", "2", "--N", "3", "--d", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flops_param_free"] == 2 * 2 * 3 * 4
        assert payload["ratio"]["float"] > 1

    def test_bench_records_timings(self, capsys):
        assert main(["flops", "--L", "4", "--N", "4", "--d", "8", "--bench", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["measured_ns"]) == {"standard", "param_free"}

    def test_invalid_dims_structured_error(self, capsys):
        assert main(["flops", "--L", "0", "--N", "3", "--d", "4"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["command"] == "flops"


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck PASS" in out
        assert out.count("trial") == 3

    def test_zero_trials_structured_error(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["message"] == "trials must be at least 1, got 0"


class TestTrainCommand:
    def test_writes_artifacts(self, tiny_config_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "final test accuracy" in stdout
        report = json.loads((out_dir / "report.json").read_text())
        assert report["seed"] == 3
        assert len(report["losses"]) == 6
        assert (out_dir / "checkpoint" / "manifest.json").exists()

    def test_env_seed_overrides_config(self, tiny_config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ADEMVL_SEED", "11")
        out_dir = tmp_path / "run-env"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "report.json").read_text())["seed"] == 11

    def test_bad_env_seed_is_structured_error(self, tiny_config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ADEMVL_SEED", "not-a-number")
        assert main(["train", "--config", str(tiny_config_file), "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "ADEMVL_SEED" in err["message"]

    @pytest.mark.parametrize("field", ["steps", "n_test", "batch_size", "n_train"])
    def test_run_size_below_one_is_structured_error(self, field, tiny_config_file, tmp_path, capsys):
        config = json.loads(tiny_config_file.read_text())
        tiny_config_file.write_text(json.dumps({**config, field: 0}))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"{field} must be at least 1, got 0", "command": "train"}
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad, message", [({"channels": 1}, "channels must be at least 2, got 1"),
                                              ({"d_in": 4}, "d_in must be at least channels (8), got 4")],
                             ids=["one-channel", "d_in-below-channels"])
    def test_unrunnable_task_is_structured_error(self, bad, message, tiny_config_file, tmp_path, capsys):
        config = json.loads(tiny_config_file.read_text())
        tiny_config_file.write_text(json.dumps({**config, **bad}))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": message, "command": "train"}
        assert not out_dir.exists()

    @pytest.mark.parametrize("lr", [0.0, -0.5, float("nan")], ids=["zero", "negative", "nan"])
    def test_unusable_base_lr_is_structured_error(self, lr, tiny_config_file, tmp_path, capsys):
        config = json.loads(tiny_config_file.read_text())
        tiny_config_file.write_text(json.dumps({**config, "base_lr": lr}))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"base_lr must be finite and positive, got {lr}", "command": "train"}
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", MISTYPED, ids=MISTYPED_IDS)
    def test_mistyped_value_is_structured_error(self, bad, tiny_config_file, tmp_path, capsys):
        config = json.loads(tiny_config_file.read_text())
        tiny_config_file.write_text(json.dumps({**config, **bad}))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        (name,) = bad
        assert err["error"] == "ValueError" and err["command"] == "train"
        assert err["message"].startswith(f"{name} must ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, error", [(None, "FileNotFoundError"), ("5", "ValueError"), ("null", "ValueError")],
                             ids=["missing", "number", "null"])
    def test_unreadable_config_file_structured_error(self, text, error, tmp_path, capsys):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["train", "--config", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error


class TestAblateCommand:
    def test_placement_sweep_writes_reports(self, tiny_config_file, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "ablate",
                "--axis",
                "placement",
                "--config",
                str(tiny_config_file),
                "--steps",
                "2",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert table.count("->") >= 6  # one placement label per row
        payload = json.loads((out_dir / "ablate_placement.json").read_text())
        assert len(payload) == 6
        assert all(p["error"] is None for p in payload)

    def test_projection_sweep_prints_ordering_note(self, tiny_config_file, capsys):
        code = main(["ablate", "--axis", "projection", "--config", str(tiny_config_file), "--steps", "2"])
        assert code == 0
        assert "projection ordering" in capsys.readouterr().out

    def test_unknown_axis_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["ablate", "--axis", "dropout"])
        assert err.value.code == 2


def _cut_embed(m, ck):
    """Cut the embedding's tensor file inside its dims."""
    path = ck / m["tensors"]["embed"]["file"]
    path.write_bytes(path.read_bytes()[:9])
    return m


class TestHeatmapCommand:
    def test_reads_checkpoint_and_writes_grids(self, tiny_config_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        hm_dir = tmp_path / "hm"
        code = main(
            ["heatmap", "--checkpoint", str(run_dir / "checkpoint"), "--samples", "16", "--out", str(hm_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean keep frequency 0.800000000000" in out
        grid = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in (hm_dir / "heatmap_scale1.csv").read_text().strip().splitlines()
            ]
        )
        assert grid.shape == (16, 16)
        payload = json.loads((hm_dir / "heatmap.json").read_text())
        assert payload["gamma"] == 0.2

    def test_counts_match_the_runs_own_test_set(self, tiny_config_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(run_dir)]) == 0
        hm_dir = tmp_path / "hm"
        assert main(["heatmap", "--checkpoint", str(run_dir / "checkpoint"), "--samples", "16", "--out", str(hm_dir)]) == 0
        capsys.readouterr()
        payload = json.loads((hm_dir / "heatmap.json").read_text())
        model, _, _ = load_checkpoint(run_dir / "checkpoint")
        _, test_set = gen_dataset(3, n_train=64, n_test=32)  # the run's seed and n_test
        expect = drop_heatmap(model, test_set, encoder_seed=3, n_samples=16)
        for scale, counts in expect.counts.items():
            np.testing.assert_array_equal(payload["grids"][str(scale)]["counts"], counts)
        assert payload["queried_top_decile_rate"] == expect.queried_top_decile_rate
        # with the default sample count the CLI reproduces the run's own report
        assert main(["heatmap", "--checkpoint", str(run_dir / "checkpoint"), "--out", str(tmp_path / "all")]) == 0
        capsys.readouterr()
        full = json.loads((tmp_path / "all" / "heatmap.json").read_text())
        assert full == json.loads((run_dir / "report.json").read_text())["heatmaps"]
        # and writes byte-identical CSVs, per scale, raw and normalized
        written = sorted(path.name for path in run_dir.glob("heatmap_*.csv"))
        assert written == ["heatmap_scale1.csv", "heatmap_scale1_normalized.csv",
                           "heatmap_scale2.csv", "heatmap_scale2_normalized.csv"]
        assert sorted(path.name for path in (tmp_path / "all").glob("*.csv")) == written
        for name in written:
            assert (tmp_path / "all" / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_checkpoint_without_run_config_structured_error(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "bare", DecoderModel.build(ModelConfig()))
        assert main(["heatmap", "--checkpoint", str(tmp_path / "bare")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "run config" in err["message"]

    @pytest.mark.parametrize("edit, message", [
        (lambda m, _: {**m, "config": {**m["config"], "n_heads": 4}}, "n_heads"),
        (lambda m, _: [m], "manifest must be a JSON object"),
        (lambda m, _: {**m, "config": 5}, "config must be a JSON object"),
        (lambda m, _: {**m, "tensors": {**m["tensors"], "embed": "embed.admt"}},
         "'embed' must be listed as a JSON object"),
        (lambda m, _: {**m, "metrics": 5}, "metrics must be a JSON object"),
        (lambda m, _: {**m, "metrics": None}, "metrics must be a JSON object"),
        (lambda m, _: {**m, "tensors": {**m["tensors"], "embed": {**m["tensors"]["embed"], "file": 7}}},
         "'embed' must be listed as a JSON object with a string \"file\""),
        (lambda m, _: {**m, "tensors": {**m["tensors"], "embed": {"shape": m["tensors"]["embed"]["shape"]}}},
         "'embed' must be listed as a JSON object with a string \"file\""),
        (lambda m, _: {k: v for k, v in m.items() if k != "step"}, "step must be a JSON integer, got nothing"),
        (_cut_embed, "9 bytes end inside the 22-byte header"),
        (lambda m, _: {**m, "tensors": {**m["tensors"], "fusion.extra": {"file": "fusion_extra.admt"}}},
         "checkpoint tensor 'fusion.extra' has no slot in the model"),
    ], ids=["unknown-config-key", "list", "numeric-config", "string-tensor-entry", "numeric-metrics", "null-metrics",
            "numeric-file", "entry-without-file", "no-step", "truncated-tensor-file", "extra-entry-without-file"])
    def test_malformed_manifest_structured_error(self, edit, message, tmp_path, capsys):
        save_checkpoint(tmp_path / "ck", DecoderModel.build(ModelConfig()))
        mpath = tmp_path / "ck" / "manifest.json"
        mpath.write_text(json.dumps(edit(json.loads(mpath.read_text()), tmp_path / "ck")))
        assert main(["heatmap", "--checkpoint", str(tmp_path / "ck")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]

    def test_missing_checkpoint_structured_error(self, capsys):
        assert main(["heatmap", "--checkpoint", "/no/such/ckpt"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


class TestDumpPromptCommand:
    def test_prints_summary_and_saves(self, tmp_path, capsys):
        out = tmp_path / "prompt.admt"
        assert main(["dump-prompt", "--seed", "5", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "320 rows" in stdout
        assert load_tensor(out).shape == (320, 32)
        sidecar = json.loads(out.with_suffix(".admt.json").read_text())
        assert sidecar["scale_of_row"] == [1] * 256 + [2] * 64

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ADEMVL_SEED", "9")
        assert main(["dump-prompt", "--seed", "5"]) == 0
        assert "seed 9" in capsys.readouterr().out

    def test_custom_scales(self, capsys):
        assert main(["dump-prompt", "--seed", "0", "--scales", "1", "4"]) == 0
        assert "272 rows" in capsys.readouterr().out


class TestNegativeSeed:
    @pytest.mark.parametrize("env, argv, source", [
        ("-1", ["gradcheck", "--trials", "1"], "ADEMVL_SEED"),
        (None, ["gradcheck", "--trials", "1", "--seed", "-1"], "--seed"),
        (None, ["ablate", "--axis", "gamma", "--steps", "1", "--seed", "-2", "--out", "OUT"], "--seed"),
        ("-3", ["dump-prompt", "--out", "OUT"], "ADEMVL_SEED"),
        (None, ["dump-prompt", "--seed", "-1", "--out", "OUT"], "--seed"),
        ("-1", ["train", "--out", "OUT"], "ADEMVL_SEED"),
    ], ids=["env-gradcheck", "gradcheck", "ablate", "env-dump-prompt", "dump-prompt", "env-train"])
    def test_is_structured_error_naming_its_source(self, env, argv, source, tmp_path, monkeypatch, capsys):
        """Exit 1 with the JSON error before anything is printed or written; OUT is the output path."""
        if env is None:
            monkeypatch.delenv("ADEMVL_SEED", raising=False)
        else:
            monkeypatch.setenv("ADEMVL_SEED", env)
        out = tmp_path / "out"
        assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and err["command"] == argv[0]
        assert err["message"].startswith(f"{source} must be non-negative, got -")
        assert captured.out == ""
        assert not out.exists()


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestReadme:
    def test_command_line_block_parses(self):
        """Every `fuselab ...` line of README's "Command line" block parses, and together they use all six subcommands."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("fuselab ")]
        commands = {build_parser().parse_args(shlex.split(line)[1:]).command for line in lines}
        assert commands == {"flops", "gradcheck", "train", "ablate", "heatmap", "dump-prompt"}
