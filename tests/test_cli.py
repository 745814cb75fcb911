import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from qesa import anneal, bench, cli, ising, qp

from conftest import fake_sampler_cmd

FAST = [
    "--steps", "10",
    "--num-samples", "8",
    "--inner-sweeps", "5",
]


def _write_trivial_instance(tmp_path):
    # all four corners of Q=-I share the optimal value -1
    path = tmp_path / "trivial.json"
    qp.save(qp.QpInstance(Q=-np.eye(2), c=np.zeros(2)), path)
    return path


def test_generate_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["generate", "-n", "10", "--scale", "5", "--seed", "3", "-o", str(out1)]) == 0
    assert cli.main(["generate", "-n", "10", "--scale", "5", "--seed", "3", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = qp.load(out1)
    assert inst.n == 10
    capsys.readouterr()


def test_generate_rejects_zero_scale(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["generate", "-n", "4", "--scale", "0", "-o", str(tmp_path / "x.json")])
    assert err.value.code == 2


def test_solve_trivial_instance_exact_sampler(tmp_path, capsys):
    path = _write_trivial_instance(tmp_path)
    code = cli.main(["solve", str(path), "--solver", "qesa_exact", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "best_f: -1.0" in out
    assert "boundary_fraction:" in out
    assert "sampler_time_s:" in out


def test_solve_json_output_and_report_file(tmp_path, capsys):
    path = _write_trivial_instance(tmp_path)
    report_path = tmp_path / "report.json"
    code = cli.main([
        "solve", str(path), "--solver", "qesa_exact", "--seed", "1",
        "--json", "-o", str(report_path),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_f"] == -1.0
    assert doc["boundary_fraction"] == 1.0
    saved = json.loads(report_path.read_text())
    assert saved["best_f"] == doc["best_f"]


def test_solve_unknown_solver_is_usage_error(tmp_path):
    path = _write_trivial_instance(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(path), "--solver", "warpdrive"])
    assert err.value.code == 2


def test_solve_external_without_command_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QESA_EXTERNAL_SAMPLER", raising=False)
    path = _write_trivial_instance(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(path), "--solver", "qesa_external"])
    assert err.value.code == 2
    assert "QESA_EXTERNAL_SAMPLER" in capsys.readouterr().err


def test_solve_external_with_fake_sampler(tmp_path, capsys):
    path = _write_trivial_instance(tmp_path)
    code = cli.main([
        "solve", str(path), "--solver", "qesa_external",
        "--sampler-cmd", fake_sampler_cmd("exact"), "--seed", "0",
        "--steps", "5",
    ])
    assert code == 0
    assert "best_f: -1.0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "bench", "sweep-steps", "sweep-p"])
@pytest.mark.parametrize(
    "flags, message", [(["--alpha", "2"], "alpha"), (["--t-min", "5", "--t-max", "1"], "t_max")]
)
def test_invalid_schedule_is_usage_error(tmp_path, capsys, command, flags, message):
    args = {
        "solve": [str(_write_trivial_instance(tmp_path))],
        "bench": ["-o", str(tmp_path / "out")],
        "sweep-steps": ["-o", str(tmp_path / "out")],
        "sweep-p": ["-o", str(tmp_path / "out")],
    }[command]
    with pytest.raises(SystemExit) as err:
        cli.main([command, *args, *flags])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [("solve", ["--retain-p", "2"]), ("solve", ["--retain-p", "-0.5"]),
     ("sweep-p", ["--p-list", "1.5"]), ("sweep-p", ["--p-list", "0,0.5,-1"])],
)
def test_retention_probability_outside_unit_interval_is_usage_error(
    tmp_path, capsys, command, flags
):
    out = tmp_path / "out"
    args = [str(_write_trivial_instance(tmp_path))] if command == "solve" else ["-o", str(out)]
    with pytest.raises(SystemExit) as err:
        cli.main([command, *args, *flags])
    assert err.value.code == 2
    assert "retain_probability must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--t-max", "1e400"], ["--t-max", "inf"], ["--t-min", "nan"], ["--k0", "inf"],
     ["--k0", "nan"]],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(_write_trivial_instance(tmp_path)), *flags])
    assert err.value.code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [("sweep-steps", ["--steps-list", "0"]), ("sweep-steps", ["--steps-list", "5,-1"]),
     ("bench", ["--dims", "0"]), ("bench", ["--dims", "6,0"])],
)
def test_non_positive_list_entries_are_usage_errors(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        cli.main([command, "-o", str(out), *flags])
    assert err.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["random_search", "projected_gradient", "reference"])
def test_retain_p_on_a_tag_without_directions_is_usage_error(tmp_path, capsys, solver):
    path = _write_trivial_instance(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(path), "--solver", solver, "--retain-p", "0.5"])
    assert err.value.code == 2
    assert "--retain-p" in capsys.readouterr().err


def test_solve_reproduces_the_grid_row_of_every_solver_tag(tmp_path, capsys):
    n, scale, seed = 6, 5.0, 3
    command = fake_sampler_cmd("exact")
    grid = bench.ExperimentGrid(
        dims=(n,), diag_scales=(scale,), seeds=(seed,), solvers=tuple(bench.SOLVERS),
        schedule=anneal.ScheduleConfig(steps=5),
        sampler_cfg=ising.SamplerConfig(num_samples=8, inner_sweeps=5, command=command),
    )
    rows = {row["solver"]: row for row in bench.run_grid(grid)}
    path = tmp_path / "inst.json"
    cli.main(["generate", "-n", str(n), "--scale", str(scale), "--seed", str(seed),
              "-o", str(path)])
    for tag in bench.SOLVERS:
        capsys.readouterr()
        code = cli.main([
            "solve", str(path), "--solver", tag, "--seed", str(seed), "--json",
            "--steps", "5", "--num-samples", "8", "--inner-sweeps", "5",
            "--sampler-cmd", command,
        ])
        assert code == 0, tag
        assert rows[tag]["error"] == "", tag
        assert json.loads(capsys.readouterr().out)["best_f"] == rows[tag]["best_f"], tag


def test_solve_missing_file_is_runtime_error(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_runtime_failure_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    qp.save(qp.generate(30, 1.0, seed=0), big)
    assert cli.main(["solve", str(big), "--solver", "corner_exact"]) == 1
    assert "cap" in capsys.readouterr().err


def test_solve_deterministic_given_seed(tmp_path, capsys):
    src = tmp_path / "inst.json"
    cli.main(["generate", "-n", "8", "--scale", "5", "--seed", "2", "-o", str(src)])
    capsys.readouterr()
    docs = []
    for _ in range(2):
        cli.main(["solve", str(src), "--json", "--seed", "7", *FAST])
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["best_f"] == docs[1]["best_f"]
    assert docs[0]["final_x"] == docs[1]["final_x"]


def test_bench_smoke_completes_quickly(tmp_path, capsys):
    out_dir = tmp_path / "made" / "bench"
    t0 = time.perf_counter()
    code = cli.main([
        "bench", "--dims", "6", "--scales", "1", "--seeds", "0,1",
        "--solvers", "qesa_exact,sa,random_search",
        "-o", str(out_dir), *FAST,
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0
    lines = (out_dir / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 6  # header + rows
    capsys.readouterr()


def test_bench_seed_ranges_and_plot_data(tmp_path, capsys):
    out_dir = tmp_path / "bench2"
    code = cli.main([
        "bench", "--dims", "6", "--scales", "1", "--seeds", "0-2",
        "--solvers", "random_search", "--plot-data", "-o", str(out_dir), *FAST,
    ])
    assert code == 0
    lines = (out_dir / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    assert (out_dir / "plot_by_scale.tsv").exists()
    capsys.readouterr()


def test_bench_unknown_solver_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", "--solvers", "qesa_exact,warpdrive", "-o", str(tmp_path)])
    assert err.value.code == 2


def test_sweep_steps_cli(tmp_path, capsys):
    out_dir = tmp_path / "steps"
    code = cli.main([
        "sweep-steps", "-n", "6", "--scale", "20", "--seeds", "0,1",
        "--steps-list", "2,4", "--solver", "qesa_exact", "-o", str(out_dir), *FAST,
    ])
    assert code == 0
    lines = (out_dir / "sweep_steps.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # 2 instances x 2 step counts
    assert (out_dir / "plot_by_steps.tsv").exists()
    capsys.readouterr()


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    inst = _write_trivial_instance(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 5, "solver": "qesa_exact", "json": True}))
    assert cli.main(["solve", str(inst), "--config", str(cfg), "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == 5
    # explicit flags beat the config file
    assert cli.main(["solve", str(inst), "--config", str(cfg), "--steps", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == 3


def test_config_file_errors(tmp_path, capsys):
    inst = _write_trivial_instance(tmp_path)
    assert cli.main(["solve", str(inst), "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    for content, message in ((json.dumps([1, 2, 3]), "JSON object"), ("{bad", "not valid JSON")):
        bad.write_text(content)
        with pytest.raises(SystemExit) as err:  # the file's content is a usage error
            cli.main(["solve", str(inst), "--config", str(bad)])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def test_sweep_p_cli(tmp_path, capsys):
    out_dir = tmp_path / "psweep"
    code = cli.main([
        "sweep-p", "-n", "6", "--scale", "1", "--seeds", "0,1",
        "--p-list", "0,1", "--solver", "qesa_exact", "-o", str(out_dir), *FAST,
    ])
    assert code == 0
    lines = (out_dir / "sweep_p.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flags, message",
    [("bench", ["--scales", "0"], "must be finite and > 0"),
     ("bench", ["--scales", "1,nan"], "must be finite and > 0"),
     ("generate", ["-n", "4", "--seed", "-1"], "must be >= 0"),
     ("solve", ["--seed", "-1"], "must be >= 0"),
     ("bench", ["--seeds", "-1"], "must be >= 0"),
     ("sweep-p", ["--base-seed", "-1"], "must be >= 0"),
     ("bench", ["--seeds", "4-0,1"], "runs backwards")],
)
def test_bad_scales_seeds_and_ranges_are_usage_errors(tmp_path, capsys, command, flags, message):
    out = tmp_path / "out"
    args = {
        "generate": ["-o", str(out)],
        "solve": [str(_write_trivial_instance(tmp_path))],
    }.get(command, ["-o", str(out)])
    with pytest.raises(SystemExit) as err:
        cli.main([command, *args, *flags])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_external_without_command_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QESA_EXTERNAL_SAMPLER", raising=False)
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep-steps", "--solver", "qesa_external", "-o", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "QESA_EXTERNAL_SAMPLER" in capsys.readouterr().err


def test_sweep_takes_only_qesa_tags(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep-p", "--solver", "random_search", "-o", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _readme_cli_lines():
    """The `qesa ...` lines of README's CLI block, `\\` continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    joined = block.replace("\\\n", " ")
    return [ln.split("#", 1)[0] for ln in joined.splitlines() if ln.startswith("qesa ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert {shlex.split(ln)[1] for ln in lines} == {
        "generate", "solve", "bench", "sweep-steps", "sweep-p"
    }
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # a stale flag exits 2
