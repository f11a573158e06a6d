"""Tests for the repro-poi command-line interface."""

import json

import pytest

from repro.cli import main
from repro.data.io import load_answers, load_dataset


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "dataset.json"
    code = main(
        [
            "generate",
            "--dataset", "synthetic",
            "--num-tasks", "10",
            "--labels-per-task", "5",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_generate_beijing(self, tmp_path, capsys):
        out = tmp_path / "beijing.json"
        assert main(["generate", "--dataset", "beijing", "--out", str(out)]) == 0
        dataset = load_dataset(out)
        assert len(dataset) == 200
        assert "wrote Beijing" in capsys.readouterr().out

    def test_generate_synthetic_size(self, dataset_file):
        dataset = load_dataset(dataset_file)
        assert len(dataset) == 10
        assert dataset.tasks[0].num_labels == 5

    def test_missing_out_fails(self):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "beijing"])

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])


class TestCollectAndInfer:
    def test_collect_then_infer(self, dataset_file, tmp_path, capsys):
        answers_path = tmp_path / "answers.json"
        code = main(
            [
                "collect",
                "--dataset-file", str(dataset_file),
                "--answers-per-task", "3",
                "--num-workers", "10",
                "--seed", "5",
                "--out", str(answers_path),
            ]
        )
        assert code == 0
        answers = load_answers(answers_path)
        assert len(answers) == 30

        code = main(
            [
                "infer",
                "--dataset-file", str(dataset_file),
                "--answers-file", str(answers_path),
                "--methods", "MV", "IM",
                "--num-workers", "10",
                "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "MV: labelling accuracy" in output
        assert "IM: labelling accuracy" in output

    def test_infer_with_mismatched_pool_errors(self, dataset_file, tmp_path, capsys):
        answers_path = tmp_path / "answers.json"
        main(
            [
                "collect",
                "--dataset-file", str(dataset_file),
                "--answers-per-task", "2",
                "--num-workers", "10",
                "--seed", "5",
                "--out", str(answers_path),
            ]
        )
        # Requesting IM with a smaller regenerated pool must fail loudly rather
        # than silently treating unknown workers as new ones.
        code = main(
            [
                "infer",
                "--dataset-file", str(dataset_file),
                "--answers-file", str(answers_path),
                "--methods", "IM",
                "--num-workers", "3",
                "--seed", "5",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_infer_with_answers_from_another_dataset_errors(
        self, dataset_file, tmp_path, capsys
    ):
        other_dataset = tmp_path / "other.json"
        answers_path = tmp_path / "answers.json"
        main(["generate", "--dataset", "beijing", "--out", str(other_dataset)])
        main(
            [
                "collect",
                "--dataset-file", str(other_dataset),
                "--answers-per-task", "1",
                "--out", str(answers_path),
            ]
        )
        code = main(
            [
                "infer",
                "--dataset-file", str(dataset_file),
                "--answers-file", str(answers_path),
                "--methods", "MV", "EM", "IM",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestCampaign:
    def test_campaign_runs_and_reports(self, dataset_file, capsys):
        code = main(
            [
                "campaign",
                "--dataset-file", str(dataset_file),
                "--budget", "30",
                "--num-workers", "8",
                "--workers-per-round", "3",
                "--assigner", "uncertainty",
                "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "campaign finished" in output
        assert "final accuracy (uncertainty):" in output

    def test_campaign_with_accopt(self, dataset_file, capsys):
        code = main(
            [
                "campaign",
                "--dataset-file", str(dataset_file),
                "--budget", "20",
                "--num-workers", "8",
                "--workers-per-round", "2",
                "--assigner", "accopt",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "final accuracy (accopt):" in capsys.readouterr().out

    def test_campaign_with_sparse_engine(self, dataset_file, capsys):
        code = main(
            [
                "campaign",
                "--dataset-file", str(dataset_file),
                "--budget", "20",
                "--num-workers", "8",
                "--workers-per-round", "2",
                "--assigner", "accopt",
                "--assigner-engine", "sparse",
                "--candidate-radius", "100.0",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "final accuracy (accopt):" in capsys.readouterr().out


class TestServeSim:
    def test_serve_sim_with_sparse_engine(self, capsys):
        code = main(
            [
                "serve-sim",
                "--num-tasks", "15",
                "--budget", "24",
                "--num-workers", "8",
                "--workers-per-round", "3",
                "--assigner", "accopt",
                "--assigner-engine", "sparse",
                "--candidate-radius", "100.0",
                "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "answers ingested: 24" in output
        assert "final labelling accuracy:" in output

    def test_serve_sim_replays_generated_workload(self, tmp_path, capsys):
        snapshot_path = tmp_path / "snapshot.npz"
        code = main(
            [
                "serve-sim",
                "--num-tasks", "15",
                "--budget", "40",
                "--num-workers", "8",
                "--workers-per-round", "3",
                "--batch-answers", "8",
                "--full-refresh-interval", "30",
                "--seed", "5",
                "--snapshot-out", str(snapshot_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "answers ingested: 40" in output
        assert "micro-batches" in output
        assert "assignment latency: p50" in output
        assert "final labelling accuracy:" in output
        assert snapshot_path.exists()

    def test_serve_sim_on_dataset_file(self, dataset_file, capsys):
        code = main(
            [
                "serve-sim",
                "--dataset-file", str(dataset_file),
                "--budget", "16",
                "--num-workers", "6",
                "--workers-per-round", "2",
                "--assigner", "uncertainty",
                "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "snapshots:" in output
        assert "answers ingested: 16" in output


class TestServeSimScenario:
    def test_scenario_runs_end_to_end(self, capsys):
        code = main(
            [
                "serve-sim",
                "--scenario", "spam",
                "--num-tasks", "12",
                "--num-workers", "10",
                "--budget", "40",
                "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario spam:" in output
        assert "answers ingested: 40" in output
        assert "trust:" in output
        assert "final labelling accuracy:" in output

    def test_scenario_rejects_dataset_file(self, dataset_file, capsys):
        code = main(
            [
                "serve-sim",
                "--scenario", "clean",
                "--dataset-file", str(dataset_file),
            ]
        )
        assert code == 2
        assert "drop --dataset-file" in capsys.readouterr().err

    def test_unknown_scenario_fails(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--scenario", "mystery"])
