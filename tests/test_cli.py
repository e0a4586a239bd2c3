import json
import os
import subprocess
import sys

import pytest

import mmrec
from mmrec.cli import (SCHEMA, ConfigError, dump_config, main,
                       objective_config, parse_config)

TINY = [
    "d=8", "n_heads=2", "ffn_mult=1", "vocab_size=12", "p_max=4", "q=4",
    "patch_dim=4", "text_blocks=1", "vision_blocks=1", "user_blocks=1",
    "l_max=6", "max_epochs=1", "patience=5", "batch_size=4", "n_users=12",
    "n_items=8", "seq_min=5", "seq_max=6", "p_min=2", "min_interactions=2",
    "seed=0",
]


def tiny_args(extra):
    out = []
    for kv in TINY:
        out += ["-o", kv]
    return out + extra


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_without_file():
    cfg = parse_config()
    assert cfg["d"] == 32 and cfg["objectives"] == "dap,nicl,nid,rcl"
    assert set(cfg) == set(SCHEMA)


def test_file_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\nd = 16\nseed = 3  # trailing comment\n")
    cfg = parse_config(str(path))
    assert cfg["d"] == 16 and cfg["seed"] == 3
    cfg = parse_config(str(path), overrides=["d=64"])
    assert cfg["d"] == 64  # override beats the file
    assert cfg["seed"] == 3


def test_dump_parse_round_trip(tmp_path):
    cfg = parse_config(overrides=["learning_rate=0.005", "objectives=dap"])
    path = tmp_path / "resolved.cfg"
    path.write_text(dump_config(cfg))
    assert parse_config(str(path)) == cfg


def test_unknown_key_names_origin(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dee = 16\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1.*'dee'"):
        parse_config(str(path))
    with pytest.raises(ConfigError, match="override"):
        parse_config(overrides=["dee=16"])


def test_bad_value_and_missing_file():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(overrides=["d=banana"])
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.cfg")


def test_objective_config_validation():
    cfg = parse_config(overrides=["objectives=dap,vcl"])
    assert objective_config(cfg).contrastive == "vcl"
    with pytest.raises(ConfigError, match="at most one"):
        objective_config(parse_config(overrides=["objectives=vcl,nicl"]))
    with pytest.raises(ConfigError, match="unknown names"):
        objective_config(parse_config(overrides=["objectives=dap,xyz"]))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    pre = str(root / "pre")
    assert main(tiny_args(["gen-data", "--out", data])) == 0
    assert main(tiny_args(["pretrain", "--data", data, "--out", pre])) == 0
    return root, data, pre


def test_gen_data_writes_both_datasets(workdir):
    _, data, _ = workdir
    for which in ("source", "target"):
        assert os.path.exists(os.path.join(data, f"{which}_items.tsv"))
        assert os.path.exists(os.path.join(data, f"{which}_interactions.tsv"))
    assert os.path.exists(os.path.join(data, "resolved_config.txt"))


def test_gen_data_deterministic(workdir, tmp_path):
    _, data, _ = workdir
    again = str(tmp_path / "again")
    assert main(tiny_args(["gen-data", "--out", again])) == 0
    for name in ("source_items.tsv", "target_interactions.tsv"):
        with open(os.path.join(data, name), "rb") as a, \
                open(os.path.join(again, name), "rb") as b:
            assert a.read() == b.read()


def test_stats_prints_table(workdir, capsys):
    _, data, _ = workdir
    assert main(tiny_args(["stats", "--data", data])) == 0
    out = capsys.readouterr().out
    assert "source" in out and "target" in out and "#users" in out


def test_pretrain_outputs(workdir):
    _, _, pre = workdir
    assert os.path.exists(os.path.join(pre, "pretrained.bundle"))
    with open(os.path.join(pre, "log.jsonl")) as f:
        log = [json.loads(line) for line in f]
    assert log[0]["epoch"] == 0
    assert log[-1]["label"] == "pretrain"
    assert os.path.exists(os.path.join(pre, "resolved_config.txt"))


def test_pretrain_deterministic(workdir, tmp_path):
    _, data, pre = workdir
    again = str(tmp_path / "pre2")
    assert main(tiny_args(["pretrain", "--data", data, "--out", again])) == 0
    with open(os.path.join(pre, "pretrained.bundle"), "rb") as a, \
            open(os.path.join(again, "pretrained.bundle"), "rb") as b:
        assert a.read() == b.read()


def test_bundle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits the long inner dimension of a weight gradient across
    # threads, which moves its last bits; the CLI pins one thread
    threads = min(2, os.cpu_count() or 1)
    if threads < 2:
        pytest.skip("one CPU core: OpenBLAS runs one thread here, so a "
                    "thread-count dependence cannot show")
    src = os.path.dirname(os.path.dirname(mmrec.__file__))
    config = []
    for kv in ("n_users=300", "n_items=80", "d=32", "batch_size=64",
               "max_epochs=3", "seed=3"):
        config += ["-o", kv]
    bundles = []
    for n in (1, threads):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(n))
        data, pre = str(tmp_path / f"data{n}"), tmp_path / f"pre{n}"
        for command in (["gen-data", "--out", data],
                        ["pretrain", "--data", data, "--out", str(pre)]):
            subprocess.run([sys.executable, "-m", "mmrec.cli", *config, *command],
                           env=env, capture_output=True, check=True)
        bundles.append((pre / "pretrained.bundle").read_bytes())
    assert bundles[0] == bundles[1]


def test_missing_openblas_is_reported(monkeypatch, capsys, tmp_path):
    from mmrec import cli

    monkeypatch.setattr(cli, "_pin_blas_to_one_thread", lambda: False)
    main(["stats", "--data", str(tmp_path)])
    assert "no OpenBLAS found" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["full", "text_only"])
def test_finetune_from_bundle(workdir, tmp_path, mode):
    _, data, pre = workdir
    out = str(tmp_path / f"ft_{mode}")
    bundle = os.path.join(pre, "pretrained.bundle")
    assert main(tiny_args(["finetune", "--data", data, "--out", out,
                           "--bundle", bundle, "--mode", mode])) == 0
    assert os.path.exists(os.path.join(out, "finetuned.bundle"))


def test_finetune_from_scratch_and_evaluate(workdir, tmp_path, capsys):
    _, data, _ = workdir
    out = str(tmp_path / "scratch")
    assert main(tiny_args(["finetune", "--data", data, "--out", out])) == 0
    bundle = os.path.join(out, "finetuned.bundle")
    ev = str(tmp_path / "eval")
    assert main(tiny_args(["evaluate", "--data", data, "--bundle", bundle,
                           "--out", ev])) == 0
    text = capsys.readouterr().out
    assert "HR" in text and "NDCG" in text
    with open(os.path.join(ev, "metrics.jsonl")) as f:
        report = json.loads(f.readline())
    assert report["phase"] == "test" and report["count"] > 0
    assert main(tiny_args(["-o", "cold_threshold=100", "cold-eval", "--data",
                           data, "--bundle", bundle, "--out", ev])) == 0
    with open(os.path.join(ev, "cold_metrics.jsonl")) as f:
        cold = json.loads(f.readline())
    assert cold["phase"] == "cold"


def test_evaluate_all_phases_share_one_index(workdir, tmp_path, monkeypatch):
    from mmrec import transfer

    _, data, pre = workdir
    built, build = [], transfer.build_item_index
    monkeypatch.setattr(transfer, "build_item_index",
                        lambda *args: built.append(1) or build(*args))
    common = ["--data", data, "--dataset", "source",
              "--bundle", os.path.join(pre, "pretrained.bundle")]
    args = tiny_args(["-o", "cold_threshold=100"])
    separate, together = str(tmp_path / "separate"), str(tmp_path / "together")
    lines = []
    for phase in ("valid", "test"):
        assert main(args + ["evaluate", *common, "--phase", phase,
                            "--out", separate]) == 0
        lines.append(open(os.path.join(separate, "metrics.jsonl")).read())
    assert main(args + ["cold-eval", *common, "--out", separate]) == 0
    assert len(built) == 3  # one process, and one model, per phase
    assert main(args + ["evaluate", *common, "--phase", "all",
                        "--out", together]) == 0
    assert len(built) == 4  # valid, test and cold on one model: one build
    assert open(os.path.join(together, "metrics.jsonl")).read() == "".join(lines)
    cold = open(os.path.join(together, "cold_metrics.jsonl")).read()
    assert cold == open(os.path.join(separate, "cold_metrics.jsonl")).read()
    assert json.loads(cold)["count"] > 0


def test_loaded_model_commands_use_the_bundle_l_max(tmp_path):
    """evaluate, cold-eval and finetune --bundle truncate prefixes to the
    bundle's L_max: without `-o l_max=6` they write what they write with it."""
    data, pre = str(tmp_path / "data"), str(tmp_path / "pre")
    longer = ["-o", "seq_min=9", "-o", "seq_max=12", "-o", "cold_threshold=100"]
    assert main(tiny_args(longer + ["gen-data", "--out", data])) == 0
    assert main(tiny_args(longer + ["pretrain", "--data", data, "--out", pre])) == 0
    bundle = os.path.join(pre, "pretrained.bundle")
    without = [a for kv in TINY if kv != "l_max=6" for a in ("-o", kv)] + longer
    outputs = {}
    for name, args in (("with", tiny_args(longer)), ("without", without)):
        out = tmp_path / name
        common = ["--data", data, "--bundle", bundle]
        assert main(args + ["evaluate", *common, "--dataset", "source",
                            "--phase", "all", "--out", str(out / "all")]) == 0
        assert main(args + ["cold-eval", *common, "--out", str(out / "cold")]) == 0
        assert main(args + ["finetune", *common, "--out", str(out / "ft")]) == 0
        with open(out / "ft" / "log.jsonl") as f:
            log = [json.loads(line) for line in f]
        outputs[name] = (
            [(out / rel).read_bytes() for rel in
             ("all/metrics.jsonl", "all/cold_metrics.jsonl",
              "cold/cold_metrics.jsonl", "ft/finetuned.bundle")],
            [{k: v for k, v in e.items() if k != "seconds"} for e in log])
    assert outputs["with"] == outputs["without"]


def test_loaded_model_commands_record_the_bundle_model_keys(workdir, tmp_path):
    """evaluate and finetune --bundle write the loaded model's sizes to
    resolved_config.txt, not the command line's, which they do not use."""
    _, data, pre = workdir
    bundle = ["--data", data, "--bundle", os.path.join(pre, "pretrained.bundle")]
    wider = tiny_args(["-o", "d=16", "-o", "l_max=9", "-o", "text_blocks=2"])
    for name, args in (("same", tiny_args([])), ("wider", wider)):
        assert main(args + ["evaluate", *bundle, "--out", str(tmp_path / name)]) == 0
        assert main(args + ["finetune", *bundle, "--out",
                            str(tmp_path / name / "ft")]) == 0
    for out in ("wider", "wider/ft"):
        resolved = parse_config(str(tmp_path / out / "resolved_config.txt"))
        assert (resolved["d"], resolved["l_max"], resolved["text_blocks"]) == (8, 6, 1)
        assert resolved["batch_size"] == 4  # the other keys are the command line's
    assert ((tmp_path / "wider" / "metrics.jsonl").read_bytes()
            == (tmp_path / "same" / "metrics.jsonl").read_bytes())


def test_finetune_missing_group_exits_1(workdir, tmp_path, capsys):
    from mmrec.encoders import ModelConfig
    from mmrec.model import RecModel
    from mmrec.transfer import save_bundle

    _, data, _ = workdir
    cfg = ModelConfig(d=8, n_heads=2, ffn_mult=1, vocab_size=12, p_max=4,
                      q=4, patch_dim=4, text_blocks=1, vision_blocks=1,
                      user_blocks=1, L_max=6, modality="text")
    bundle = str(tmp_path / "text.bundle")
    save_bundle(RecModel.init(cfg, 0), bundle)
    code = main(tiny_args(["finetune", "--data", data,
                           "--out", str(tmp_path / "ft"),
                           "--bundle", bundle, "--mode", "vision_only"]))
    assert code == 1
    assert "vision_encoder" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["dropout=0.1", "threads=2"])
def test_removed_keys_exit_1(pair, capsys):
    assert main(["-o", pair, "stats", "--data", "."]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("pairs, message", [
    (["n_items=0"], "n_items=0 must be >= n_latent_styles=4"),
    (["vocab_size=1"], "vocab_size=1 must be > n_latent_styles=4"),
    (["seq_min=9", "seq_max=3"], "L_min=9 must be <= L_max=3"),
    (["p_min=9", "p_max=8"], "p_min=9 must lie in [1, p_max=8]"),
    (["p_min=0", "p_max=0"], "p_min=0 must lie in [1, p_max=0]"),
    (["seq_min=0", "seq_max=0"], "L_min=0 must be >= 1"),
    (["seq_min=-2"], "L_min=-2 must be >= 1"),
    (["n_users=-1"], "n_users=-1 must be >= 0"),
    (["n_users_target=-5"], "n_users_target=-5 must be >= 0"),
    (["q=0"], "q=0 must be >= 1"),
    (["patch_dim=0"], "patch_dim=0 must be >= 1"),
], ids=["no_items", "one_token", "seq_min_above_seq_max", "p_min_above_p_max",
        "p_min_0", "seq_min_0", "seq_min_negative", "n_users_negative",
        "n_users_target_negative", "q_0", "patch_dim_0"])
def test_gen_data_names_the_key_out_of_bounds(pairs, message, tmp_path, capsys):
    overrides = [arg for kv in pairs for arg in ("-o", kv)]
    assert main(overrides + ["gen-data", "--out", str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("phase", ["valid", "test"])
def test_cold_eval_rejects_phase(phase, capsys):
    # cold-eval ranks the cold-start slice only, so a phase would do nothing
    from mmrec.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        main(["cold-eval", "--data", ".", "--bundle", "b", "--phase", phase])
    assert exc.value.code == 2
    assert "unrecognized arguments: --phase" in capsys.readouterr().err
    args = build_parser().parse_args(["evaluate", "--data", ".", "--bundle", "b",
                                      "--phase", phase])
    assert args.phase == phase


def test_evaluate_bundle_with_unknown_config_key_exits_1(workdir, tmp_path, capsys):
    from pathlib import Path

    from .test_transfer import resign_with_config

    _, data, pre = workdir
    bogus = tmp_path / "bogus.bundle"
    resign_with_config(Path(pre) / "pretrained.bundle", bogus, bogus=1)
    code = main(tiny_args(["evaluate", "--data", data, "--dataset", "source",
                           "--bundle", str(bogus)]))
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_evaluate_damaged_bundle_exits_1(workdir):
    import tempfile
    from pathlib import Path

    from hypothesis import given, settings

    from .test_transfer import DAMAGE, damaged

    _, data, pre = workdir
    raw = (Path(pre) / "pretrained.bundle").read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(DAMAGE)
    def check(damage):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "damaged.bundle"
            path.write_bytes(damaged(raw, damage))
            assert main(tiny_args(["evaluate", "--data", data, "--dataset", "source",
                                   "--bundle", str(path), "--out", tmp])) == 1

    check()


def test_config_error_exits_1(capsys):
    assert main(["-o", "nope=1", "stats", "--data", "."]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_missing_data_exits_1(tmp_path, capsys):
    code = main(tiny_args(["pretrain", "--data", str(tmp_path / "void"),
                           "--out", str(tmp_path / "o")]))
    assert code == 1


def test_missing_bundle_exits_1(workdir, tmp_path, capsys):
    _, data, _ = workdir
    code = main(tiny_args(["evaluate", "--data", data, "--bundle",
                           str(tmp_path / "absent.bundle")]))
    assert code == 1
    assert "cannot read bundle" in capsys.readouterr().err


@pytest.mark.parametrize("command, which", [("pretrain", "source"),
                                            ("finetune", "target")])
def test_empty_split_exits_1_naming_file_and_threshold(tmp_path, capsys, command, which):
    # one item and one one-item user: filtering leaves no user to train on
    for name, text in (("items", "#meta q=1 patch_dim=2\n0\t1 2\t0.0 0.0\n"),
                       ("interactions", "0\t0\n")):
        (tmp_path / f"{which}_{name}.tsv").write_text(text)
    out = tmp_path / "o"
    assert main([command, "--data", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{os.path.join(tmp_path, f'{which}_interactions.tsv')}:" in err
    assert "min_interactions=5" in err
    assert not out.exists()


def test_one_item_training_sequence_exits_1_naming_min_interactions(tmp_path, capsys):
    # four 5-item users and one 3-item user, whose training sequence is one
    # item long: every item keeps 3 or more interactions at min_interactions=3
    patches = " ".join(["0.5"] * 16)
    (tmp_path / "source_items.tsv").write_text(
        "#meta q=4 patch_dim=4\n"
        + "".join(f"{i}\t{i + 1} {i + 2}\t{patches}\n" for i in range(5)))
    (tmp_path / "source_interactions.tsv").write_text(
        "0\t0 1 2 3 4\n1\t4 3 2 1 0\n2\t1 0 3 2 4\n3\t2 4 0 1 3\n4\t0 1 2\n")
    out = tmp_path / "o"
    args = tiny_args(["-o", "min_interactions=3", "pretrain", "--data", str(tmp_path),
                      "--out", str(out)])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "training user 4 has a sequence of length 1" in err
    assert "min_interactions" in err
    assert not out.exists()
    # dap alone corrupts nothing, so the same split trains
    assert main(["-o", "objectives=dap"] + args) == 0
    assert (out / "pretrained.bundle").exists()


def test_stats_without_datasets_exits_1(tmp_path, capsys):
    assert main(["stats", "--data", str(tmp_path)]) == 1
    assert "no source or target dataset" in capsys.readouterr().err


def test_pretrain_rejects_out_of_range_trainable_top_blocks(workdir, tmp_path, capsys):
    _, data, _ = workdir
    out = tmp_path / "o"
    code = main(tiny_args(["-o", "trainable_top_blocks=5", "pretrain",
                           "--data", data, "--out", str(out)]))
    assert code == 1
    assert "trainable_top_blocks=5" in capsys.readouterr().err
    assert not (out / "pretrained.bundle").exists()


def test_negative_cold_threshold_exits_1(workdir, tmp_path, capsys):
    _, data, pre = workdir
    out = tmp_path / "o"
    code = main(tiny_args(["-o", "cold_threshold=-4", "cold-eval", "--data", data,
                           "--dataset", "source", "--bundle",
                           os.path.join(pre, "pretrained.bundle"), "--out", str(out)]))
    assert code == 1
    assert "cold threshold=-4" in capsys.readouterr().err
    assert not (out / "cold_metrics.jsonl").exists()


@pytest.mark.parametrize("pair", ["n_heads=0", "d=0", "ffn_mult=0", "vocab_size=-1"])
def test_non_positive_model_size_exits_1(workdir, tmp_path, capsys, pair):
    _, data, _ = workdir
    code = main(tiny_args(["-o", pair, "pretrain", "--data", data,
                           "--out", str(tmp_path / "o")]))
    assert code == 1
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("pair", [
    "learning_rate=-1", "weight_decay=-0.01", "beta1=1.5", "beta2=1.0",
    "beta1=-0.1", "adam_eps=-1e-8", "max_epochs=-3", "patience=0",
    "grad_clip=-1", "learning_rate=nan", "shuffle_rate=1.5", "replace_rate=-0.1",
    "learning_rate=inf", "weight_decay=inf", "adam_eps=inf", "grad_clip=inf",
])
def test_bad_training_value_exits_1_before_training(workdir, tmp_path, capsys,
                                                   monkeypatch, pair):
    # rejected when the configuration is built: training never starts and
    # no bundle is written
    from mmrec import training

    runs = []
    monkeypatch.setattr(training, "_run_training", lambda *a: runs.append(a) or [])
    _, data, _ = workdir
    out = tmp_path / "o"
    code = main(tiny_args(["-o", pair, "pretrain", "--data", data, "--out", str(out)]))
    assert code == 1
    assert pair.split("=")[0] in capsys.readouterr().err
    assert not runs and not (out / "pretrained.bundle").exists()


@pytest.mark.parametrize("pair, command, message", [
    ("cold_threshold=-4", ["evaluate", "--phase", "all"], "cold threshold=-4"),
    ("objectives=", ["pretrain"], "objectives: enable at least one"),
    ("batch_size=1", ["pretrain"], "batch size B=1"),
], ids=["cold_threshold=-4", "objectives=", "batch_size=1"])
def test_config_value_rejected_before_any_work(workdir, tmp_path, capsys, monkeypatch,
                                               pair, command, message):
    # no dataset is read, nothing is printed and no output is written
    from mmrec import data as data_mod

    loads = []
    load = data_mod.load_dataset
    monkeypatch.setattr(data_mod, "load_dataset", lambda *a: loads.append(a) or load(*a))
    _, data, pre = workdir
    out = tmp_path / "o"
    if command[0] == "evaluate":
        command = command + ["--bundle", os.path.join(pre, "pretrained.bundle")]
    code = main(tiny_args(["-o", pair, *command, "--data", data, "--out", str(out)]))
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err
    assert captured.out == "" and not loads and not out.exists()
