import json

import numpy as np
import pytest

from plknn import ExperimentConfig, ModelConfig, candidate_set, sample_population
from plknn import sample_rankings, split_cluster
from plknn.cli import EXIT_FAILED, EXIT_OK, main
from plknn.experiments import read_report_csv


@pytest.fixture()
def model_config_file(tmp_path):
    cfg = ModelConfig(n_agents=25, n_alternatives=40, dim=1, box=1.0, seed=3)
    path = tmp_path / "model.json"
    path.write_text(cfg.to_json())
    return path


@pytest.fixture()
def experiment_config_file(tmp_path):
    cfg = ExperimentConfig(
        model=ModelConfig(n_agents=30, n_alternatives=80, dim=1, box=5.0, seed=3),
        k_grid=(3, 6),
        pair_sample_size=40,
        dims=(1, 2),
        replicate_seeds=(0,),
    )
    path = tmp_path / "experiment.json"
    path.write_text(cfg.to_json())
    return path


def test_simulate(tmp_path, model_config_file, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(model_config_file), "--out", str(out)])
    assert code == EXIT_OK
    header = (out / "rankings.csv").read_text().splitlines()[0]
    assert header == "n=25,m=40,seed=3"
    assert (out / "agents.csv").exists()
    assert (out / "alternatives.csv").exists()


def test_knn_by_index_and_coords(model_config_file, capsys):
    code = main(
        ["knn", "--method", "kt_knn", "--query", "4", "--k", "3",
         "--config", str(model_config_file)]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "kt_knn"
    assert payload["query"] == 4
    assert len(payload["members"]) == 3
    code = main(
        ["knn", "--method", "oracle", "--coords", "0.42", "--k", "5",
         "--config", str(model_config_file)]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == 25  # planted after the sampled agents
    assert len(payload["members"]) == 5


def test_knn_threshold_mode(model_config_file, capsys):
    code = main(
        ["knn", "--method", "global_knn", "--query", "1", "--eps", "0.4",
         "--config", str(model_config_file)]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["selector"] == {"mode": "threshold", "eps": 0.4}


def test_knn_argument_errors(model_config_file, capsys):
    assert main(
        ["knn", "--method", "kt_knn", "--query", "1",
         "--config", str(model_config_file)]
    ) == EXIT_FAILED
    assert main(
        ["knn", "--method", "kt_knn", "--query", "1", "--k", "2", "--eps", "0.1",
         "--config", str(model_config_file)]
    ) == EXIT_FAILED
    assert main(
        ["knn", "--method", "kt_knn", "--k", "2", "--config", str(model_config_file)]
    ) == EXIT_FAILED
    assert main(
        ["knn", "--method", "oracle", "--coords", "0.1,0.2", "--k", "2",
         "--config", str(model_config_file)]
    ) == EXIT_FAILED


def test_alt_sim(model_config_file, capsys):
    code = main(
        ["alt-sim", "--query", "2", "--ell", "1.5", "--config", str(model_config_file)]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == 2
    assert 2 in payload["candidates"]
    assert "half_stats" in payload and "final" in payload and "clusters" in payload


@pytest.mark.parametrize("query", ["-1", "40"])
def test_alt_sim_rejects_an_alternative_outside_the_range(model_config_file, capsys, query):
    # -1 once printed alternative 39's candidates; 40 once ended in a traceback
    assert main(
        ["alt-sim", "--query", query, "--ell", "1.5", "--config", str(model_config_file)]
    ) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: alternative index")


@pytest.mark.parametrize("ell", ["nan", "inf", "0.5"])
def test_alt_sim_rejects_a_bad_ell(model_config_file, capsys, ell):
    # nan once exited 0 and printed "ell": NaN, which is not JSON
    assert main(
        ["alt-sim", "--query", "2", "--ell", ell, "--config", str(model_config_file)]
    ) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ell must be")


@pytest.mark.parametrize(
    "argv",
    [
        ["knn", "--method", "oracle", "--query", "0", "--k", "1"],
        ["alt-sim", "--query", "2", "--ell", "4"],
    ],
)
def test_query_commands_have_no_output_directory(model_config_file, tmp_path, capsys, argv):
    # knn and alt-sim print JSON and write no file, so --out is not an option
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--config", str(model_config_file), "--out", str(tmp_path / "o")])
    assert exit_info.value.code == EXIT_FAILED
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_alt_sim_rejects_a_boolean_ell(model_config_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["alt-sim", "--query", "2", "--ell", "True", "--config", str(model_config_file)])
    assert exit_info.value.code == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument --ell" in captured.err


def test_alt_sim_prints_the_split_that_split_cluster_used(tmp_path, capsys):
    # box 5 separates the two clusters: the centroid gap (about 0.31) clears
    # the merge threshold 2/sqrt(200) (about 0.14), so a cluster is dropped
    cfg = ModelConfig(n_agents=200, n_alternatives=20, dim=1, box=5.0, seed=3)
    path = tmp_path / "m.json"
    path.write_text(cfg.to_json())
    assert main(["alt-sim", "--query", "0", "--ell", "1", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    others = [b for b in payload["candidates"] if b != 0]
    assert sorted(int(b) for b in payload["half_stats"]) == others
    assert sorted(sum(payload["clusters"].values(), [])) == others
    centroids = payload["centroids"]
    assert abs(centroids[1] - centroids[0]) > 2 / np.sqrt(200)
    for label, members in payload["clusters"].items():
        stats = [payload["half_stats"][str(b)] for b in members]
        assert centroids[int(label)] == pytest.approx(np.mean(stats), abs=1e-12)
    larger = payload["clusters"][str(int(np.argmax(centroids)))]
    assert payload["final"] == sorted([0, *larger])
    assert len(payload["final"]) < len(payload["candidates"])
    matrix = sample_rankings(sample_population(cfg), seed=3)
    kept = split_cluster(matrix, 0, candidate_set(matrix, 0, 1.0))
    assert payload["final"] == sorted(kept)


def test_alt_sim_high_dim_is_candidates_only(tmp_path, capsys):
    cfg = ModelConfig(n_agents=20, n_alternatives=15, dim=2, box=1.0, seed=1)
    path = tmp_path / "m.json"
    path.write_text(cfg.to_json())
    assert main(["alt-sim", "--query", "0", "--ell", "1.0", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "final" not in payload
    assert "note" in payload


def test_verify_example_one(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify", "example-1", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert (out / "example-1.json").exists()
    curve = (out / "example-1_expected_kt.csv").read_text().splitlines()
    assert curve[0] == "x,value,stderr"
    assert len(curve) > 100


def test_verify_item_bounds(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify", "item-bounds", "--out", str(out), "--seed", "0"])
    assert code == EXIT_OK
    assert (out / "item-bounds.json").exists()


def test_experiment_subcommands(tmp_path, experiment_config_file):
    out = tmp_path / "exp"
    assert main(
        ["experiment", "fig1a", "--config", str(experiment_config_file), "--out", str(out)]
    ) == EXIT_OK
    report = read_report_csv(out / "fig1a.csv")
    assert {r.method for r in report.rows} == {"kt_knn", "global_knn", "oracle"}
    assert main(
        ["experiment", "fig1b", "--config", str(experiment_config_file),
         "--out", str(out), "--k", "4"]
    ) == EXIT_OK
    assert (out / "fig1b.csv").exists()
    assert main(
        ["experiment", "fig1c", "--config", str(experiment_config_file), "--out", str(out)]
    ) == EXIT_OK
    rows = read_report_csv(out / "fig1c.csv").rows
    assert {r.dim for r in rows} == {1, 2}


@pytest.mark.parametrize(
    "command, change",
    [
        ("experiment", {"bogus": 1}),
        ("knn", {"colour": 2}),
        ("knn", {"n_agents": "abc"}),
    ],
)
def test_bad_config_is_one_error_line(tmp_path, capsys, command, change):
    model = ModelConfig(n_agents=25, n_alternatives=40, dim=1, box=1.0, seed=3)
    if command == "experiment":
        data = ExperimentConfig(model=model, k_grid=(3,)).to_dict()
        argv = ["experiment", "fig1a"]
    else:
        data = model.to_dict()
        argv = ["knn", "--method", "oracle", "--query", "0", "--k", "1"]
    data.update(change)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(argv + ["--config", str(path)]) == EXIT_FAILED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert next(iter(change)) in err[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        # -2 once exited 0 with negative neighbor distances; 0 ended in a traceback
        (["experiment", "fig1b", "--k", "-2"], "k must be"),
        (["experiment", "fig1b", "--k", "0"], "k must be"),
        # nan once reported numpy's "cannot convert float NaN to integer"
        (["simulate", "--c-obs", "nan"], "c_obs must be"),
        # both once ran serially and exited 0
        (["experiment", "fig1a", "--jobs", "0"], "n_jobs must be"),
        (["experiment", "fig1a", "--jobs", "-1"], "n_jobs must be"),
    ],
    ids=["fig1b k -2", "fig1b k 0", "simulate c_obs nan", "fig1a jobs 0", "fig1a jobs -1"],
)
def test_bad_number_is_one_error_line(
    tmp_path, capsys, model_config_file, experiment_config_file, argv, message
):
    config = experiment_config_file if argv[0] == "experiment" else model_config_file
    out = tmp_path / "out"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == EXIT_FAILED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not list(out.glob("*.csv"))


def test_missing_config_is_an_error(tmp_path):
    assert main(
        ["knn", "--method", "oracle", "--query", "0", "--k", "1",
         "--config", str(tmp_path / "nope.json")]
    ) == EXIT_FAILED


def test_verify_exit_code_mapping():
    from plknn.cli import EXIT_INCONCLUSIVE, verify_exit_code
    from plknn.theory import ClaimReport, VerifyReport

    def rep(*statuses):
        return VerifyReport(
            target="t",
            claims=tuple(ClaimReport(name=f"c{i}", status=s) for i, s in enumerate(statuses)),
        )

    assert verify_exit_code(rep("pass", "pass")) == EXIT_OK
    assert verify_exit_code(rep("pass", "inconclusive")) == EXIT_INCONCLUSIVE
    assert verify_exit_code(rep("fail", "inconclusive")) == EXIT_FAILED
    assert verify_exit_code(rep("pass", "fail")) == EXIT_FAILED
