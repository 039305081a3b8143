import dataclasses
import io
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import cli_env, save_with_tensors
from ngparse import cli, engine, evaluate, grammar, guider, search


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
    assert grammar._digest64("\n".join(lines)) == g.rule_fingerprint()


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


def test_parse_oracle_line_too_deep_to_recurse_is_an_error_line():
    deep = " ".join(["v0 = 1 ;"] * 1000)
    res = run_cli(["parse", "--oracle"], stdin=f"{deep}\nv0 = 1 ;\n")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("ERROR input nests too deep to parse")
    assert lines[1] == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"


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
    # "1 + 2" splits as an AExpr by two rules (E1, E3), so the first line
    # asks the model; every other span of it has one lookahead candidate.
    monkeypatch.setattr(sys, "stdin", io.StringIO("v0 = 1 + 2 ;\nv0 v0 ;\n"))
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


@pytest.mark.parametrize("args", [["search", "--max-depth", "12"], ["parse", "--oracle"]])
def test_unknown_token_is_bad_input(args):
    res = run_cli(args, stdin="v0 = frob ;\nv0 = 1 ;\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["ERROR bad_input", "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"]


@pytest.mark.parametrize(
    "args,target", [(["search"], "iddfs_parse"), (["parse", "--oracle"], "reference_parse")]
)
def test_fault_during_parse_exits_two(args, target, monkeypatch, capsys):
    def broken(*a, **kw):
        raise ValueError("injected fault")

    monkeypatch.setattr({"iddfs_parse": evaluate, "reference_parse": cli}[target], target, broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO("v0 = 1 ;\nv0 v0 ;\n"))
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: injected fault\n"


def test_infer_non_finite_model_exits_two(tiny_model, tmp_path):
    path = tmp_path / "nan.bin"
    w_out = tiny_model.params["W_out"].copy()
    w_out[0, 0] = np.nan
    save_with_tensors(path, tiny_model, W_out=w_out)
    res = run_cli(["infer", "--model", str(path)], stdin="v0 = 1 ;\n")
    assert res.returncode == 2
    assert res.stderr == "error: tensor W_out has non-finite values\n"
    assert res.stdout == ""


def test_missing_config_file_is_a_usage_error(tmp_path):
    res = run_cli(["gen", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "x")])
    assert res.returncode == 1
    assert res.stderr.startswith("usage error: cannot read --config file")


@pytest.mark.parametrize(
    "args,flag",
    [
        (["gen", "--bucket", "5:15:x:9", "--n", "1"], "--bucket"),
        (["eval", "--methods", "oracle", "--depths", "7.."], "--depths"),
        (["eval", "--methods", "oracle", "--lengths", "8,ten"], "--lengths"),
        (["eval", "--model", "absent.bin", "--methods", "oracle", "--depths", "7.."], "--depths"),
        (["eval", "--methods", "oracle", "--depths", "9..6"], "--depths"),
    ],
)
def test_non_integer_range_is_a_usage_error(args, flag, tmp_path):
    out = tmp_path / "out"
    res = run_cli([*args, "--out", str(out)])
    assert res.returncode == 1
    assert res.stderr.startswith(f"usage error: {flag} expects")
    assert not out.exists()


@pytest.mark.parametrize(
    "args,prefix",
    [
        (["gen", "--bucket", "1:2:3:4", "--n", "1"], "--bucket '1:2:3:4': bad length range"),
        (["gen", "--bucket", "5:15:1:9", "--n", "-1"], "argument --n: expected an integer >= 1"),
        (["infer", "--model", "absent.bin", "--beam-width", "0"], "argument --beam-width:"),
        (["eval", "--methods", "oracle", "--per-cell", "0"], "argument --per-cell:"),
        (["train", "--stages", "0"], "argument --stages: expected an integer >= 1"),
        (["train", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["train", "--programs-per-stage", "0"], "programs_per_stage must be >= 1, got 0"),
        (["search", "--max-depth", "0"], "max_depth must be >= 1"),
        (["search", "--time-limit", "-1"], "time_limit_s must be > 0"),
        (["eval", "--methods", "search", "--search-max-depth", "0"], "max_depth must be >= 1"),
        (["eval", "--model", "absent.bin", "--methods", "oracle,nope"], "unknown method 'nope'"),
        (["eval", "--methods", "ngsi"], "methods ['ngsi'] require a model"),
        (["gen", "--bucket", "5:15:1:9", "--n", "1", "--seed", "-1"],
         "--bucket '5:15:1:9': seed must be >= 0"),
        (["train", "--seed", "-1"], "seed must be >= 0"),
        (["train", "--lr", "-0.1"], "lr must be > 0 and < inf, got -0.1"),
        (["train", "--lr", "nan"], "lr must be > 0 and < inf, got nan"),
        (["train", "--beta1", "1.5"], "beta1 must be >= 0 and < 1, got 1.5"),
        (["train", "--beta1", "1"], "beta1 must be >= 0 and < 1, got 1.0"),
        (["train", "--beta2", "-1"], "beta2 must be >= 0 and < 1, got -1.0"),
    ],
    ids=["bucket-range", "negative-n", "zero-beam-width", "zero-per-cell", "zero-stages",
         "zero-batch-size", "zero-programs-per-stage", "zero-search-depth",
         "negative-time-limit", "zero-eval-search-depth", "unknown-method",
         "ngsi-without-model", "negative-gen-seed", "negative-train-seed",
         "negative-lr", "nan-lr", "beta1-above-1", "beta1-of-1", "negative-beta2"],
)
def test_out_of_range_value_is_a_usage_error(args, prefix, tmp_path):
    out = tmp_path / "out"
    has_out = args[0] not in ("infer", "search")
    res = run_cli(args + (["--out", str(out)] if has_out else []), "v0 = 1 ;\n")
    assert res.returncode == 1
    assert res.stderr.startswith(f"usage error: {prefix}")
    assert res.stdout == ""
    assert not out.exists()


@dataclasses.dataclass
class _Train(guider.TrainConfig):
    lr: float = 3e-4


@dataclasses.dataclass(frozen=True)
class _Infer(engine.InferConfig):
    beam_width: int = 7


@dataclasses.dataclass(frozen=True)
class _Search(search.SearchConfig):
    max_depth: int = 17


def test_flag_left_out_takes_the_config_default(small_model_path, tmp_path, monkeypatch):
    # Each config class the CLI builds is swapped for a subclass with one
    # default changed, and the config each command builds is captured.
    built = []

    def capture(*args):
        built.append(args[-1])
        raise RuntimeError("captured")

    monkeypatch.setattr(guider, "TrainConfig", _Train)
    monkeypatch.setattr(cli, "InferConfig", _Infer)
    monkeypatch.setattr(cli, "SearchConfig", _Search)
    for name, owner in (("train", guider), ("infer", evaluate), ("iddfs_parse", evaluate)):
        monkeypatch.setattr(owner, name, capture)
    monkeypatch.setattr(evaluate, "evaluate_grid", lambda *a, search_cfg, **kw: capture(search_cfg))
    for argv in (["train", "--out", str(tmp_path / "m.bin")],
                 ["infer", "--model", str(small_model_path)],
                 ["search"],
                 ["eval", "--methods", "search", "--out", str(tmp_path / "grid.csv")]):
        monkeypatch.setattr(sys, "stdin", io.StringIO("v0 = 1 ;\n"))
        assert cli.main(argv) == 2
    assert built == [_Train(), _Infer(), _Search(), _Search(time_limit_s=60.0)]


_FLAGS = {
    "gen": "--bucket --n --seed --out --pairs",
    "train": "--stages --seed --out --log --batch-size --lr --beta1 --beta2 --d-emb --d-h "
             "--iters-per-stage --programs-per-stage",
    "infer": "--model --mode --beam-width",
    "search": "--max-depth --time-limit",
    "eval": "--model --methods --depths --lengths --per-cell --seed --out "
            "--search-max-depth --search-time-limit",
    "parse": "--oracle",
    "inspect-grammar": "",
    "inspect-model": "--model",
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_lists_every_flag(command):
    assert set(_FLAGS) == set(cli._COMMANDS)
    res = run_cli([command, "--help"])
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert set(re.findall(r"--[a-z0-9-]+", res.stdout)) == {"--help", *_FLAGS[command].split()}
