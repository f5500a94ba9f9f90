"""CLI behaviour: config parsing, command wiring, reproducibility."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bflow import cli, data, training
from bflow.predictor import MLP

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TRAIN_CFG = """\
# toy discrete run
modality = discrete
D = 16
K = 27
beta1 = 3.0
batch_size = 16
steps = 30
learning_rate = 0.002
weight_decay = 0.0
ema_decay = 0.99
seed = 5
hidden = 32,32
dataset = {dataset}
"""


def run_cli(*argv):
    return cli.main(list(argv))


def _empty_dataset(path):
    """A valid dataset file of the strings toy's shape that holds no items."""
    data.save_dataset(path, data.Dataset("discrete", 16, 27, np.empty((0, 16), dtype=np.int64)))
    return path


class TestConfigParsing:
    def test_basic_pairs_and_comments(self):
        cfg = cli.parse_config_text("modality = discrete\n# note\nD = 4\nhidden = 8,8\n")
        assert cfg == {"modality": "discrete", "D": 4, "hidden": (8, 8)}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            cli.parse_config_text("modalities = discrete\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            cli.parse_config_text("just words\n")

    def test_defaults_of_keys_a_file_leaves_out(self):
        # every bundled config sets these keys, so no run reads the defaults
        config = cli.train_config_from_run(cli.parse_config_text("modality = discrete\nD = 4\nK = 2\nbeta1 = 1.0\n"))
        got = {name: getattr(config, name) for name in ("batch_size", "steps", "learning_rate", "weight_decay",
                                                        "ema_decay", "seed", "eval_every", "hidden", "n_freqs")}
        assert got == {"batch_size": 32, "steps": 1000, "learning_rate": 1e-4, "weight_decay": 0.01,
                       "ema_decay": 0.9999, "seed": 0, "eval_every": 0, "hidden": (256, 256), "n_freqs": 8}

    def test_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("modality = discrete\nD = 4\nK = 2\nbeta1 = 1.0\n")
        cfg = cli.load_run_config(p, overrides=["steps=9", "learning_rate=0.5"])
        assert cfg["steps"] == 9 and cfg["learning_rate"] == 0.5

    def test_set_accepts_every_train_config_field(self, tmp_path):
        # the model keys are TrainConfig's fields, each coerced to its type
        p = tmp_path / "c.cfg"
        p.write_text("modality = discrete\n")
        texts = {str: ("silu", "silu"), int: ("3", 3), float: ("0.25", 0.25), tuple: ("8,4", (8, 4))}
        fields = dataclasses.fields(training.TrainConfig)
        for f in fields:
            text, value = texts[f.type]
            cfg = cli.load_run_config(p, overrides=[f"{f.name}={text}"])
            assert cfg[f.name] == value and type(cfg[f.name]) is f.type, f.name
        assert set(cli.RUN_CONFIG_KEYS) == {f.name for f in fields} | {"dataset", "width", "height"}

    def test_unknown_modality_named(self, tmp_path):
        msg = r"unknown modality 'discreet'; expected one of continuous, discretised, discrete"
        with pytest.raises(ValueError, match=msg):
            training.TrainConfig(modality="discreet", D=4, K=3, beta1=1.0)
        p = tmp_path / "c.cfg"
        p.write_text("modality = discreet\nD = 4\nK = 3\nbeta1 = 1.0\n")
        with pytest.raises(ValueError, match=msg):
            cli.train_config_from_run(cli.load_run_config(p))

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
    def test_bundled_config_matches_its_toy(self, path, tmp_path):
        # each config names its dataset relative to itself, under toys/
        run = cli.load_run_config(path)
        config = cli.train_config_from_run(run)
        data.write_toys(tmp_path / "toys")
        ds = data.load_dataset(cli._resolve(run["dataset"], str(tmp_path / path.name)))
        assert (ds.modality, ds.D, ds.K) == (config.modality, config.D, config.K)

    def test_bad_override_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("modality = discrete\n")
        with pytest.raises(ValueError):
            cli.load_run_config(p, overrides=["nonsense"])

    @pytest.mark.parametrize("pair, message", [
        ("nonsense", "expected key = value, got 'nonsense'"),
        ("lr = 0.1", "unknown config key 'lr'"),
        ("steps = ten", "steps: invalid literal for int() with base 10: 'ten'"),
        ("hidden = 8,x", "hidden: invalid literal for int() with base 10: 'x'"),
    ], ids=["no-equals", "unknown-key", "bad-int", "bad-tuple"])
    def test_file_line_and_set_share_one_parser(self, tmp_path, pair, message):
        # the same pair fails the same way in a config file and in --set,
        # and the message names the line or --set
        p = tmp_path / "c.cfg"
        p.write_text(f"modality = discrete\n{pair}\n")
        with pytest.raises(ValueError) as in_file:
            cli.load_run_config(p)
        p.write_text("modality = discrete\n")
        with pytest.raises(ValueError) as in_set:
            cli.load_run_config(p, overrides=[pair])
        assert (str(in_file.value), str(in_set.value)) == (f"line 2: {message}", f"--set: {message}")


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One small trained run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = data.write_toys(root / "toys")
    cfg_path = root / "train.cfg"
    cfg_path.write_text(TRAIN_CFG.format(dataset=paths["strings"]))
    out = root / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    return {"root": root, "cfg": cfg_path, "ckpt": out / "model.ckpt", "paths": paths}


class TestTrain:
    def test_outputs_exist(self, toy_run):
        assert toy_run["ckpt"].exists()
        history = (toy_run["root"] / "run" / "history.csv").read_text()
        assert history.startswith("step,train_loss,eval_loss")

    def test_same_seed_identical_checkpoint(self, toy_run, tmp_path):
        out2 = tmp_path / "run2"
        assert run_cli("train", "--config", str(toy_run["cfg"]), "--out", str(out2)) == 0
        assert (out2 / "model.ckpt").read_bytes() == toy_run["ckpt"].read_bytes()

    def test_missing_dataset_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("modality = discrete\nD = 4\nK = 2\nbeta1 = 1.0\n")
        with pytest.raises(SystemExit):
            run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("drop, message", [
        (("modality",), r"^train: config .*c\.cfg: missing required key 'modality'$"),
        (("modality", "D"), r"^train: config .*c\.cfg: missing required keys 'modality', 'D'$"),
    ], ids=["modality", "modality-and-D"])
    def test_missing_required_key_is_usage_error(self, toy_run, tmp_path, monkeypatch, drop, message):
        # once a TypeError traceback from TrainConfig
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained without a model key"))
        cfg = tmp_path / "c.cfg"
        lines = TRAIN_CFG.format(dataset=toy_run["paths"]["strings"]).splitlines(keepends=True)
        cfg.write_text("".join(ln for ln in lines if ln.split("=")[0].strip() not in drop))
        with pytest.raises(SystemExit, match=message):
            run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("text, sets, message", [
        (TRAIN_CFG.replace("{dataset}", "absent.ds"), (), r"train: dataset .*absent\.ds: No such file"),
        (TRAIN_CFG + "lr = 0.1\n", (), r"train: config .*c\.cfg: line 14: unknown config key 'lr'"),
        (TRAIN_CFG.replace("= discrete", "= discreet"), (), r"train: config .*c\.cfg: unknown modality 'discreet'"),
        (TRAIN_CFG + "steps = 2000\n", (), r"train: config .*c\.cfg: line 14: config key 'steps' already set on line 7$"),
        # a repeated --set key once kept its last value silently
        (TRAIN_CFG, ("steps=5", "eval_every=0", "steps = 10"),
         r"train: config .*c\.cfg: --set 'steps = 10': config key 'steps' already set by --set 'steps=5'$"),
    ], ids=["missing-dataset-file", "unknown-key", "unknown-modality", "duplicate-key", "duplicate-set-key"])
    def test_bad_input_is_usage_error(self, toy_run, tmp_path, monkeypatch, text, sets, message):
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained on bad input"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text.format(dataset=toy_run["paths"]["strings"]))
        with pytest.raises(SystemExit, match=message):
            run_cli("train", "--config", str(cfg), *(arg for item in sets for arg in ("--set", item)),
                    "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("setting, message", [
        ("schedule_preset=foo", r"schedule_preset 'foo' is not a discrete preset; expected one of binary, chars27"),
        ("schedule_preset=cts-256bin", r"schedule_preset 'cts-256bin' is not a discrete preset"),
        ("batch_size=0", r"batch_size must be >= 1, got 0"),
        ("steps=0", r"steps must be >= 1, got 0"),
        ("eval_every=-1", r"eval_every must be >= 0, got -1"),
        ("activation=tanh", r"--set: unknown config key 'activation'"),
        ("adam_beta1=0.8", r"--set: unknown config key 'adam_beta1'"),
        ("n_freqs=-1", r"n_freqs must be >= 1, got -1"),
        ("n_freqs=0", r"n_freqs must be >= 1, got 0"),
        ("hidden=0", r"hidden widths must be >= 1, got 0"),
        ("hidden=32,-4", r"hidden widths must be >= 1, got 32,-4"),
        ("alphabet=/nonexistent/alpha.txt", r"--set: unknown config key 'alphabet'"),
        ("weight_decay=nan", r"weight_decay must be finite and >= 0, got nan"),
        ("weight_decay=inf", r"weight_decay must be finite and >= 0, got inf"),
        ("learning_rate=inf", r"learning_rate must be finite and >= 0, got inf"),
    ], ids=["unknown-preset", "preset-of-other-family", "batch-size-0", "steps-0", "eval-every-negative",
            "deleted-activation", "deleted-adam-beta", "n-freqs-negative", "n-freqs-0", "hidden-0",
            "hidden-negative", "deleted-alphabet", "weight-decay-nan", "weight-decay-inf", "learning-rate-inf"])
    def test_bad_setting_is_usage_error_before_compute(self, toy_run, monkeypatch, setting, message):
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained on a bad setting"))
        with pytest.raises(SystemExit, match=rf"train: config .*train\.cfg: {message}"):
            run_cli("train", "--config", str(toy_run["cfg"]), "--set", setting, "--out", str(toy_run["root"] / "x"))

    # alphabet was a run key that nothing read; bflow sample takes --alphabet
    @pytest.mark.parametrize("line", ["time_feature = raw", "adam_beta2 = 0.99", "alphabet = toys/alphabet27.txt"])
    def test_deleted_key_in_config_file_rejected(self, toy_run, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TRAIN_CFG.format(dataset=toy_run["paths"]["strings"]) + line + "\n")
        key = line.split()[0]
        with pytest.raises(SystemExit, match=rf"train: config .*c\.cfg: line 14: unknown config key '{key}'"):
            run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))

    def test_uncreatable_out_is_usage_error_before_compute(self, toy_run, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained with no output directory"))
        with pytest.raises(SystemExit, match=r"train: --out .*file/run: Not a directory"):
            run_cli("train", "--config", str(toy_run["cfg"]), "--out", str(blocker / "run"))

    @pytest.mark.parametrize("name, setting, message", [
        ("train_mixture", "K=5", "continuous data takes no class count, got K=5"),
        ("train_glyphs", "K=1", r"discrete data needs K >= 2, got K=1"),
    ], ids=["continuous-with-K", "discrete-K1"])
    def test_class_count_the_modality_cannot_take_is_usage_error(self, monkeypatch, tmp_path, name, setting, message):
        # a continuous config once trained with K=5 and evaluated on K=0 data
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained on a bad class count"))
        with pytest.raises(SystemExit, match=rf"train: config .*{name}\.cfg: {message}"):
            run_cli("train", "--config", str(CONFIG_DIR / f"{name}.cfg"), "--set", setting,
                    "--out", str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, settings, message", [
        ("train_strings", ["sigma1=0.5"], "discrete data takes no sigma1, got 0.5"),
        ("train_strings", ["recon_sigma=0.3"], "discrete data takes no recon_sigma, got 0.3"),
        ("train_mixture", ["beta1=2.0"], "continuous data takes no beta1, got 2.0"),
        ("train_mixture", ["modality=discretised", "K=16"], "discretised data takes no recon_sigma, got 0.3"),
        ("train_mixture", ["modality=discretised", "K=16", "recon_sigma=0", "beta1=2.0"],
         "discretised data takes no beta1, got 2.0"),
    ], ids=["discrete-sigma1", "discrete-recon-sigma", "continuous-beta1", "discretised-recon-sigma",
            "discretised-beta1"])
    def test_field_the_modality_ignores_is_usage_error(self, monkeypatch, tmp_path, name, settings, message):
        # each once trained with the value silently dropped
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained with an ignored field"))
        sets = [arg for setting in settings for arg in ("--set", setting)]
        with pytest.raises(SystemExit, match=rf"train: config .*{name}\.cfg: {message}"):
            run_cli("train", "--config", str(CONFIG_DIR / f"{name}.cfg"), *sets, "--out", str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    def test_empty_dataset_is_usage_error_before_compute(self, tmp_path, monkeypatch):
        # it once stopped with a traceback from training.train
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TRAIN_CFG.format(dataset=_empty_dataset(tmp_path / "empty.ds")))
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained on no items"))
        with pytest.raises(SystemExit, match=r"train: dataset .*empty\.ds holds no items"):
            run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))

    def test_mismatched_dataset_rejected_before_compute(self, toy_run, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "modality = discrete\nD = 8\nK = 27\nbeta1 = 1.0\n"
            f"dataset = {toy_run['paths']['strings']}\n"
        )
        with pytest.raises(SystemExit, match="does not match"):
            run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o"))


class TestEval:
    def test_table_and_csv(self, toy_run, tmp_path, capsys):
        out_csv = tmp_path / "eval.csv"
        code = run_cli(
            "eval", "--checkpoint", str(toy_run["ckpt"]),
            "--dataset", str(toy_run["paths"]["strings"]),
            "--n", "4,8", "--passes", "1", "--seed", "3", "--out", str(out_csv),
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "∞" in printed and "bits/dim" in printed
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "steps,nats,se_nats,nats_per_dim,bits_per_dim,samples"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "8", "inf", "recon"]

    def test_modality_mismatch_rejected(self, toy_run, tmp_path):
        with pytest.raises(SystemExit, match="modality"):
            run_cli(
                "eval", "--checkpoint", str(toy_run["ckpt"]),
                "--dataset", str(toy_run["paths"]["mixture"]),
            )

    @staticmethod
    def _eval_rejected(monkeypatch, ckpt, ds_path, shapes):
        # the check runs before the predictor is built or any loss is drawn
        def no_compute(*a, **k):
            raise AssertionError("eval computed on a mismatched dataset")

        monkeypatch.setattr(training, "ema_predictor", no_compute)
        monkeypatch.setattr(training, "evaluate", no_compute)
        with pytest.raises(SystemExit, match=shapes):
            run_cli("eval", "--checkpoint", str(ckpt), "--dataset", str(ds_path))

    def test_bin_count_mismatch_rejected(self, tmp_path, monkeypatch):
        config = training.TrainConfig(modality="discretised", D=4, K=256, sigma1=0.02, hidden=(8,))
        mlp = MLP(config.predictor_spec(), seed=0)
        ckpt = tmp_path / "k256.ckpt"
        zeros = np.zeros_like(mlp.params)
        training.save_checkpoint(ckpt, training.TrainResult(mlp, mlp.params.copy(), zeros, zeros.copy(), config=config))
        ds_path = tmp_path / "k16.ds"
        data.save_dataset(ds_path, data.ingest_bytes(bytes(range(0, 256, 8)), 4, "discretised", K=16))
        self._eval_rejected(monkeypatch, ckpt, ds_path,
                            r"\(modality discretised, D=4, K=16\) does not match "
                            r"the model \(modality discretised, D=4, K=256\)")

    def test_dimension_mismatch_rejected(self, toy_run, tmp_path, monkeypatch):
        ds_path = tmp_path / "d8.ds"
        items = data.toy_strings().items[:, :8]
        data.save_dataset(ds_path, data.Dataset(modality="discrete", D=8, K=27, items=items))
        self._eval_rejected(monkeypatch, toy_run["ckpt"], ds_path,
                            r"\(modality discrete, D=8, K=27\) does not match "
                            r"the model \(modality discrete, D=16, K=27\)")

    def test_missing_checkpoint_is_usage_error(self, toy_run, tmp_path):
        with pytest.raises(SystemExit, match=r"eval: checkpoint .*absent\.ckpt: No such file"):
            run_cli("eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                    "--dataset", str(toy_run["paths"]["strings"]))

    def test_corrupt_checkpoint_is_usage_error(self, toy_run, tmp_path):
        ckpt = tmp_path / "bad.ckpt"
        raw = bytearray(toy_run["ckpt"].read_bytes())
        raw[16] = ord(" ")  # blank the header's opening brace
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(SystemExit, match=r"eval: checkpoint .*bad\.ckpt: checkpoint JSON header is corrupt"):
            run_cli("eval", "--checkpoint", str(ckpt), "--dataset", str(toy_run["paths"]["strings"]))

    def test_missing_dataset_file_is_usage_error(self, toy_run, tmp_path):
        with pytest.raises(SystemExit, match=r"eval: dataset .*absent\.ds: No such file"):
            run_cli("eval", "--checkpoint", str(toy_run["ckpt"]), "--dataset", str(tmp_path / "absent.ds"))

    def test_empty_dataset_is_usage_error(self, toy_run, tmp_path):
        # it once printed a header-only table and exited 0
        empty = _empty_dataset(tmp_path / "empty.ds")
        with pytest.raises(SystemExit, match=r"eval: dataset .*empty\.ds holds no items"):
            run_cli("eval", "--checkpoint", str(toy_run["ckpt"]), "--dataset", str(empty))

    def test_step_count_below_one_rejected(self, toy_run):
        with pytest.raises(SystemExit, match="eval: --n 4,0: step counts must be whole numbers >= 1, got 0"):
            run_cli(
                "eval", "--checkpoint", str(toy_run["ckpt"]),
                "--dataset", str(toy_run["paths"]["strings"]), "--n", "4,0",
            )

    @pytest.mark.parametrize("passes", ["0", "-1"])
    def test_passes_below_one_rejected(self, toy_run, passes, capsys):
        # both once printed an empty table and exited 0
        with pytest.raises(SystemExit, match=f"eval: --passes {passes}: passes must be >= 1, got {passes}"):
            run_cli(
                "eval", "--checkpoint", str(toy_run["ckpt"]),
                "--dataset", str(toy_run["paths"]["strings"]), "--passes", passes,
            )
        assert capsys.readouterr().out == ""

    def test_malformed_step_count_is_usage_error(self, toy_run):
        with pytest.raises(SystemExit, match=r"eval: --n 4,x: invalid literal for int\(\) with base 10: 'x'"):
            run_cli(
                "eval", "--checkpoint", str(toy_run["ckpt"]),
                "--dataset", str(toy_run["paths"]["strings"]), "--n", "4,x",
            )


class TestSample:
    def test_zero_count_no_files(self, toy_run, tmp_path):
        out = tmp_path / "s0"
        assert run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--count", "0", "--out", str(out)) == 0
        assert list(out.iterdir()) == []

    def test_seed_reproducible_files(self, toy_run, tmp_path):
        a, b = tmp_path / "sa", tmp_path / "sb"
        for out in (a, b):
            assert run_cli(
                "sample", "--checkpoint", str(toy_run["ckpt"]), "--count", "2",
                "--steps", "8", "--seed", "21", "--out", str(out),
            ) == 0
        for name in ("sample_000.txt", "sample_001.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_steps_below_one_rejected(self, toy_run, tmp_path):
        with pytest.raises(SystemExit, match="--steps must be >= 1"):
            run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--steps", "0", "--out", str(tmp_path / "s"))

    def test_negative_count_rejected(self, toy_run, tmp_path):
        with pytest.raises(SystemExit, match="--count must be >= 0"):
            run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--count", "-1", "--out", str(tmp_path / "s"))

    def test_missing_checkpoint_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match=r"sample: checkpoint .*absent\.ckpt: No such file"):
            run_cli("sample", "--checkpoint", str(tmp_path / "absent.ckpt"), "--out", str(tmp_path / "s"))

    def test_uncreatable_out_is_usage_error(self, toy_run, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit, match=r"sample: --out .*file/s: Not a directory"):
            run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--out", str(blocker / "s"))

    def test_missing_alphabet_is_usage_error(self, toy_run, tmp_path):
        with pytest.raises(SystemExit, match=r"sample: --alphabet .*absent\.txt: No such file"):
            run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--alphabet", str(tmp_path / "absent.txt"),
                    "--out", str(tmp_path / "s"))

    def test_alphabet_of_other_size_is_usage_error(self, toy_run, tmp_path):
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, list("abcde"))
        out = tmp_path / "s"
        message = r"sample: --alphabet .*a\.txt: the alphabet has 5 symbols, but the model has K=27"
        with pytest.raises(SystemExit, match=message):
            run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--alphabet", str(alpha), "--out", str(out))
        assert not out.exists()

    def test_text_samples_decode(self, toy_run, tmp_path):
        out = tmp_path / "st"
        run_cli("sample", "--checkpoint", str(toy_run["ckpt"]), "--count", "1", "--steps", "4", "--out", str(out))
        text = (out / "sample_000.txt").read_text()
        assert len(text.rstrip("\n")) == 16
        assert all(c in data.ALPHABET_27 for c in text.rstrip("\n"))


class TestIngestCommand:
    def test_text_ingest_round_trip(self, tmp_path):
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, data.ALPHABET_27)
        src = tmp_path / "corpus.txt"
        src.write_text("abc def\nxyz qrs\n")
        out = tmp_path / "c.ds"
        assert run_cli(
            "ingest", "--modality", "discrete", "--input", str(src),
            "--alphabet", str(alpha), "--output", str(out),
        ) == 0
        ds = data.load_dataset(out)
        np.testing.assert_array_equal(ds.items, [data.encode_text(s, data.ALPHABET_27) for s in ("abc def", "xyz qrs")])

    @pytest.mark.parametrize("case, message", [
        ("missing-input", r"ingest: --input .*absent\.txt: No such file"),
        ("bad-alphabet", r"ingest: --alphabet .*a\.txt: alphabet symbols must be single characters"),
        ("short-text", r"ingest: --input .*corpus\.txt: text shorter than one sequence"),
        ("unwritable-output", r"ingest: --output .*file/c\.ds: Not a directory"),
        ("empty-text", r"ingest: --input .*corpus\.txt: the text holds no lines$"),
        ("one-line-text", r"^ingest: --dim is required for text without line breaks$"),
    ], ids=["missing-input", "bad-alphabet", "short-text", "unwritable-output", "empty-text", "one-line-text"])
    def test_bad_input_is_usage_error(self, tmp_path, case, message):
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, ["ab", "c"] if case == "bad-alphabet" else data.ALPHABET_27)
        src = tmp_path / "corpus.txt"
        src.write_text({"empty-text": "\n\n", "one-line-text": "abc\n"}.get(case, "abc"))
        (tmp_path / "file").write_text("")
        args = {
            "--input": str(tmp_path / "absent.txt" if case == "missing-input" else src),
            "--alphabet": str(alpha),
            "--dim": "4" if case == "short-text" else "3",
            "--output": str(tmp_path / ("file/c.ds" if case == "unwritable-output" else "c.ds")),
        }
        if case == "one-line-text":  # the trailing newline is the file's only one
            del args["--dim"]
        with pytest.raises(SystemExit, match=message):
            run_cli("ingest", "--modality", "discrete", *(x for kv in args.items() for x in kv))

    @pytest.mark.parametrize("text", [False, True], ids=["bytes", "text"])
    def test_negative_dim_is_usage_error(self, tmp_path, text):
        # on text -2 once reached numpy's "can only specify one unknown dimension"
        src = tmp_path / "in.raw"
        src.write_bytes(b"abcdefgh")
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, data.ALPHABET_27)
        extra = ("--alphabet", str(alpha)) if text else ("--bins", "256")
        with pytest.raises(SystemExit, match=r"^ingest: --dim must be >= 1, got -2$"):
            run_cli("ingest", "--modality", "discrete", "--input", str(src), "--dim", "-2",
                    "--output", str(tmp_path / "c.ds"), *extra)

    def test_dim_other_than_the_line_length_is_usage_error(self, tmp_path):
        # lines fix D: --dim 5 on 3-symbol lines once wrote a D=3 dataset
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, data.ALPHABET_27)
        src = tmp_path / "lines.txt"
        src.write_text("abc\ndef\nghi\n")
        out = tmp_path / "l.ds"
        args = ("ingest", "--modality", "discrete", "--input", str(src), "--alphabet", str(alpha), "--output", str(out))
        with pytest.raises(SystemExit, match=r"^ingest: --dim 5: the lines of .*lines\.txt hold 3 symbols each$"):
            run_cli(*args, "--dim", "5")
        assert not out.exists()
        assert run_cli(*args, "--dim", "3") == 0 and data.load_dataset(out).D == 3

    @pytest.mark.parametrize("text", [False, True], ids=["continuous-bytes", "alphabet"])
    def test_bins_the_data_fixes_is_usage_error(self, tmp_path, text):
        # --bins was once ignored where the modality or the alphabet fixes K
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, data.ALPHABET_27)
        src = tmp_path / "in.raw"
        src.write_bytes(b"abcdef")
        out = tmp_path / "c.ds"
        if text:
            args, bins, message = ("discrete", "--alphabet", str(alpha)), "7", r"the alphabet .*a\.txt fixes K=27$"
        else:
            args, bins, message = ("continuous",), "5", r"continuous data takes no class count$"
        with pytest.raises(SystemExit, match=rf"^ingest: --bins {bins}: {message}"):
            run_cli("ingest", "--modality", *args, "--input", str(src), "--dim", "3", "--bins", bins,
                    "--output", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("modality", ["continuous", "discretised"])
    def test_alphabet_with_other_modality_is_usage_error(self, tmp_path, modality):
        # --alphabet always ingests text; it was once ignored for non-discrete data
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, data.ALPHABET_27)
        src = tmp_path / "t.txt"
        src.write_text("abcdefgh")
        out = tmp_path / "c.ds"
        with pytest.raises(SystemExit, match=f"ingest: --alphabet ingests text as discrete data, not {modality}"):
            run_cli("ingest", "--modality", modality, "--input", str(src), "--alphabet", str(alpha),
                    "--dim", "4", "--output", str(out))
        assert not out.exists()

    def test_byte_ingest(self, tmp_path):
        src = tmp_path / "img.raw"
        src.write_bytes(bytes([110] * 4))
        out = tmp_path / "img.ds"
        assert run_cli(
            "ingest", "--modality", "discretised", "--input", str(src),
            "--bins", "256", "--dim", "4", "--output", str(out),
        ) == 0
        ds = data.load_dataset(out)
        assert ds.items[0, 0] == 111  # bin = byte + 1

    def test_pgm_writer(self, tmp_path):
        p = tmp_path / "x.pgm"
        cli.write_pgm(p, np.arange(4, dtype=np.uint8), 2, 2)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 1, 2, 3])

    def test_run_config_snapshot_drives_image_shape(self, tmp_path):
        # a non-square glyph layout must survive into the checkpoint and
        # come back out in the sample header
        from bflow import training

        items = np.tile([1, 2, 2, 1, 1, 2, 1, 2], (4, 1))
        ds = data.Dataset(modality="discrete", D=8, K=2, items=items)
        ds_path = tmp_path / "bits.ds"
        data.save_dataset(ds_path, ds)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "modality = discrete\nD = 8\nK = 2\nbeta1 = 2.0\nbatch_size = 4\n"
            "steps = 5\nlearning_rate = 0.001\nseed = 1\nhidden = 8,8\n"
            "width = 4\nheight = 2\n"
            f"dataset = {ds_path}\n"
        )
        run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "r"))
        _, header = training.load_checkpoint(tmp_path / "r" / "model.ckpt")
        assert header["run_config"]["width"] == 4
        run_cli("sample", "--checkpoint", str(tmp_path / "r" / "model.ckpt"),
                "--count", "1", "--steps", "3", "--out", str(tmp_path / "s"))
        raw = (tmp_path / "s" / "sample_000.pgm").read_bytes()
        assert raw.startswith(b"P5\n4 2\n255\n")


class TestDiscretisedRoundTrip:
    def test_ingest_train_eval_sample(self, tmp_path, capsys):
        # the dataset file holds 1-based bin indices; train and eval must
        # hand the model bin centres
        src = tmp_path / "img.raw"
        src.write_bytes(np.arange(0, 256, 8, dtype=np.uint8).tobytes())  # 8 items of 2x2
        ds_path = tmp_path / "img.ds"
        assert run_cli(
            "ingest", "--modality", "discretised", "--input", str(src),
            "--bins", "256", "--dim", "4", "--output", str(ds_path),
        ) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "modality = discretised\nD = 4\nK = 256\nschedule_preset = cts-256bin\n"
            "batch_size = 4\nsteps = 3\nlearning_rate = 0.001\nseed = 1\nhidden = 8,8\n"
            f"dataset = {ds_path}\n"
        )
        run_dir = tmp_path / "r"
        assert run_cli("train", "--config", str(cfg), "--out", str(run_dir)) == 0
        ckpt = run_dir / "model.ckpt"
        out_csv = tmp_path / "eval.csv"
        assert run_cli(
            "eval", "--checkpoint", str(ckpt), "--dataset", str(ds_path),
            "--n", "2", "--passes", "1", "--out", str(out_csv),
        ) == 0
        rows = [ln.split(",") for ln in out_csv.read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["2", "inf", "recon"]
        assert all(np.isfinite(float(r[1])) for r in rows)
        assert run_cli(
            "sample", "--checkpoint", str(ckpt), "--count", "1", "--steps", "3", "--out", str(tmp_path / "s"),
        ) == 0
        raw = (tmp_path / "s" / "sample_000.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n") and len(raw) == len(b"P5\n2 2\n255\n") + 4
        alpha = tmp_path / "a.txt"
        data.save_alphabet(alpha, data.ALPHABET_27)
        message = r"sample: --alphabet .*a\.txt: an alphabet decodes discrete samples, but the model is discretised"
        with pytest.raises(SystemExit, match=message):
            run_cli("sample", "--checkpoint", str(ckpt), "--alphabet", str(alpha), "--out", str(tmp_path / "s2"))


class TestVerifyCommand:
    def test_filter_runs_subset(self, tmp_path, capsys):
        rep = tmp_path / "r.jsonl"
        code = run_cli("verify", "--seed", "7", "--filter", "schedule", "--report", str(rep))
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule-telescoping" in out and "additivity" not in out
        assert len(rep.read_text().strip().split("\n")) == 2

    def test_unknown_filter_usage_error(self, tmp_path):
        rep = tmp_path / "r.jsonl"
        with pytest.raises(SystemExit, match="verify: --filter bogus-property: no properties match"):
            run_cli("verify", "--filter", "bogus-property", "--report", str(rep))
        assert not rep.exists()

    def test_seed_range_one_line_per_property(self, tmp_path, capsys):
        rep = tmp_path / "r.jsonl"
        assert run_cli("verify", "--seed", "3..4", "--filter", "schedule", "--report", str(rep)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:2]] == ["schedule-telescoping", "schedule-entropy"]
        assert all(" at seed " in line and "0/2 seeds failed" in line for line in lines[:2])
        assert lines[-1] == "2/2 properties passed at every seed of 3..4"
        records = [json.loads(line) for line in rep.read_text().splitlines()]
        assert [(r["seed"], r["property_id"]) for r in records] == [
            (3, "schedule-telescoping"), (3, "schedule-entropy"), (4, "schedule-telescoping"), (4, "schedule-entropy"),
        ]

    def test_unwritable_report_is_usage_error_before_any_property(self, tmp_path, monkeypatch):
        from bflow import harness

        monkeypatch.setattr(harness, "run_all", lambda *a, **k: pytest.fail("ran with no report file"))
        bad = tmp_path / "missing" / "r.jsonl"
        with pytest.raises(SystemExit, match=rf"verify: --report {re.escape(str(bad))}: No such file or directory"):
            run_cli("verify", "--seed", "0..99", "--report", str(bad))

    def test_seed_range_failure_exits_nonzero(self, monkeypatch, capsys):
        from bflow import schedule

        monkeypatch.setitem(schedule.PRESETS, "binary", schedule.DiscreteQuadratic(3.01))
        assert run_cli("verify", "--seed", "0..1", "--filter", "schedule-telescoping") == 1
        assert "[FAIL] schedule-telescoping" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["4..3", "a..b", "1..", "x"])
    def test_bad_seed_is_usage_error(self, seed):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--seed", seed, "--filter", "schedule")
        assert exc.value.code == 2

    def test_corrupted_build_exits_nonzero(self, monkeypatch):
        # simulate a mutated constant: a preset drifting off its value must
        # turn the schedule property red and the exit code nonzero
        from bflow import schedule

        monkeypatch.setitem(schedule.PRESETS, "binary", schedule.DiscreteQuadratic(3.01))
        assert run_cli("verify", "--seed", "7", "--filter", "schedule-telescoping") == 1


def test_entry_point_subprocess(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "bflow.cli", "verify", "--seed", "7", "--filter", "schedule-telescoping"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1/1 properties passed" in proc.stdout


def test_cli_compares_a_modality_name_only_in_ingest():
    # ROADMAP items 13 and 15: the modality modules decide everything else,
    # sampling included, so a modality name is compared only in ingest's
    # --bins check
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    owner = {node: fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}

    def names_a_modality(node):
        return any(isinstance(c, ast.Constant) and c.value in training.OPS for c in ast.walk(node))

    found = sorted((owner.get(node), ast.unparse(node))
                   for node in ast.walk(tree) if isinstance(node, ast.Compare) and names_a_modality(node))
    assert found == [("cmd_ingest", "args.modality != 'continuous'")]
