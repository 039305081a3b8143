import io
import subprocess
import sys

import numpy as np
import pytest

from conftest import cli_env, save_with_tensors
from ngparse import cli, engine


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "ngparse.cli", *args],
        input=stdin,
        env=cli_env(),
        capture_output=True,
        text=True,
    )


def test_inspect_grammar(g):
    res = run_cli(["inspect-grammar"])
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 32
    assert lines[0] == "0\tStmt -> SimpStmt ; Stmt"
    assert lines[1] == "1\tStmt -> SimpStmt ;"


def test_unknown_flag_exits_one():
    res = run_cli(["inspect-grammar", "--bogus"])
    assert res.returncode == 1
    assert "usage error" in res.stderr


def test_unknown_subcommand_exits_one():
    assert run_cli(["frobnicate"]).returncode == 1


def test_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (out1, out2):
        res = run_cli(["gen", "--bucket", "5:15:1:9", "--n", "50",
                       "--seed", "7", "--out", str(out)])
        assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 50


def test_gen_bad_bucket_exits_one(tmp_path):
    res = run_cli(["gen", "--bucket", "5:15", "--n", "1", "--out", str(tmp_path / "x")])
    assert res.returncode == 1


def test_gen_unsatisfiable_exits_two(tmp_path):
    res = run_cli(["gen", "--bucket", "5:5:1:9", "--n", "1", "--out", str(tmp_path / "x")])
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_parse_oracle_pipeline():
    res = run_cli(["parse", "--oracle"], stdin="v0 = 1 ;\nv0 = ;\n")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"
    assert lines[1].startswith("ERROR")


def test_search_pipeline():
    res = run_cli(["search", "--max-depth", "12", "--time-limit", "10"],
                  stdin="v0 = 1 ;\n")
    assert res.returncode == 0
    assert res.stdout.strip() == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"


def test_infer_and_inspect_model(g, small_model_path):
    res = run_cli(["infer", "--model", str(small_model_path), "--mode", "fallback"],
                  stdin="v0 = 1 ;\nv0 v0 ;\n")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"
    assert lines[1].startswith("ERROR unparseable")

    res = run_cli(["inspect-model", "--model", str(small_model_path)])
    assert res.returncode == 0
    shapes = dict(line.split("\t") for line in res.stdout.splitlines())
    assert shapes["embedding"] == "33x32"
    assert shapes["U_z"] == "64x64"
    assert shapes["W_out"] == "64x32"


def test_infer_misshaped_model_exits_two(tiny_model, tmp_path):
    path = tmp_path / "bad.bin"
    save_with_tensors(path, tiny_model, W_out=np.zeros((16, 5), dtype=np.float32))
    res = run_cli(["infer", "--model", str(path)], stdin="v0 = 1 ;\nv0 v0 ;\n")
    assert res.returncode == 2
    assert res.stderr.startswith("error: tensor W_out")
    assert "ERROR bad_input" not in res.stdout


def test_infer_fault_during_parse_exits_two(g, small_model_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("matmul: mismatch")

    monkeypatch.setattr(engine, "predict_rule_distribution", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO("v0 = 1 ;\nv0 v0 ;\n"))
    assert cli.main(["infer", "--model", str(small_model_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: matmul: mismatch\n"


def test_infer_unknown_token_is_bad_input(g, small_model_path):
    res = run_cli(["infer", "--model", str(small_model_path)], stdin="v0 = frob ;\nv0 = 1 ;\n")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["ERROR bad_input", "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"]


def test_eval_cli(g, small_model_path, tmp_path):
    out = tmp_path / "grid.csv"
    res = run_cli([
        "eval", "--model", str(small_model_path), "--methods", "ngsi,oracle",
        "--depths", "7..8", "--lengths", "8,10", "--per-cell", "5",
        "--seed", "3", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,depth,length")
    assert len(lines) == 1 + 2 * 4


def test_eval_deterministic(g, small_model_path, tmp_path):
    outs = []
    for name in ("g1.csv", "g2.csv"):
        out = tmp_path / name
        res = run_cli([
            "eval", "--model", str(small_model_path), "--methods", "oracle",
            "--depths", "7..7", "--lengths", "8..10", "--per-cell", "5",
            "--seed", "4", "--out", str(out),
        ])
        assert res.returncode == 0
        outs.append(out.read_bytes())
    # wall-time columns vary run to run; compare everything else
    def strip_times(data):
        rows = []
        for line in data.decode().splitlines()[1:]:
            f = line.split(",")
            rows.append((f[0], f[1], f[2], f[3], f[4], f[7]))
        return rows
    assert strip_times(outs[0]) == strip_times(outs[1])


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bucket=5:15:1:9\nn=5\nseed=1\n")
    out = tmp_path / "c.tsv"
    res = run_cli(["gen", "--config", str(cfg), "--n", "3", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 3


def test_train_tiny(tmp_path):
    model = tmp_path / "m.bin"
    log = tmp_path / "log.csv"
    res = run_cli([
        "train", "--stages", "1", "--seed", "9", "--out", str(model),
        "--log", str(log), "--d-emb", "8", "--d-h", "16",
        "--iters-per-stage", "10", "--programs-per-stage", "30",
    ])
    assert res.returncode == 0, res.stderr
    assert model.exists()
    lines = log.read_text().splitlines()
    assert lines[0] == "stage,iteration,loss,heldout_step_acc"
    assert len(lines) > 1
