import functools
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from gpta import ValidationError, init_params, prepare, run, save_checkpoint
from gpta.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from gpta.dataset import load_jsonl, synth_generate, write_jsonl
from gpta.student import params_from_dict


def run_cli(argv):
    return main(argv)


class TestParsing:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train"])
        assert exc.value.code == EXIT_USAGE
        assert "--config" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--config", "x.json", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["dance"])
        assert exc.value.code == EXIT_USAGE


class TestGenSynth:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        code = run_cli(
            ["gen-synth", "--classes", "3", "--per-class", "5", "--noise", "0.1",
             "--seed", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        d = load_jsonl(out)
        assert len(d) == 15
        assert d.class_count == 3
        assert d.class_names == ("class0", "class1", "class2")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        code = run_cli(["gen-synth", "--classes", "2", "--per-class", "5", "--seed", "-1", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["gen-synth", "--classes", "2", "--per-class", "10", "--seed", "9"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTrainEvalReport:
    @pytest.fixture
    def run_dir(self, tmp_path, desk_config):
        cfg = desk_config(epochs=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        return out

    def test_train_produces_artifacts(self, run_dir):
        for name in ("config.json", "report.json", "metrics.csv",
                     "state_epoch0.json", "state_epoch1.json",
                     "gradients_epoch0.jsonl", "gradients_epoch1.jsonl"):
            assert (run_dir / name).exists(), name

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"data_path": "x.jsonl", "w": 50, "k": 50}))
        assert run_cli(["train", "--config", str(cfg_path)]) == EXIT_VALIDATION
        assert "w < k" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"data_path": "x.jsonl", "epoch": 3}))
        assert run_cli(["train", "--config", str(cfg_path)]) == EXIT_VALIDATION
        assert "$.epoch" in capsys.readouterr().err

    def test_eval_prints_score(self, run_dir, desk_dataset_path, tmp_path, capsys):
        # turn the best state into a standalone checkpoint
        state = json.loads((run_dir / "state_epoch1.json").read_text())
        ckpt = tmp_path / "student.json"
        ckpt.write_text(json.dumps(state["student"]))
        code = run_cli(
            ["eval", "--checkpoint", str(ckpt), "--data", str(desk_dataset_path),
             "--metric", "accuracy", "--prefix", "focus on the signal"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        score = float(out)
        assert 0.0 <= score <= 1.0

    def test_report_emits_csv_and_svg(self, run_dir, tmp_path):
        out = tmp_path / "reported"
        assert run_cli(["report", "--run", str(run_dir), "--out", str(out)]) == EXIT_OK
        csv_lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "epoch,train_loss,val_best,val_empty,improvement_rate"
        assert len(csv_lines) == 3
        svg = (out / "curves.svg").read_text()
        assert svg.startswith("<svg")
        assert 'width="800" height="480"' in svg

    def test_report_csv_matches_run_csv(self, run_dir, tmp_path):
        out = tmp_path / "reported"
        assert run_cli(["report", "--run", str(run_dir), "--out", str(out)]) == EXIT_OK
        assert (out / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()

    def test_report_deterministic_svg(self, run_dir, tmp_path):
        run_cli(["report", "--run", str(run_dir), "--out", str(tmp_path / "r1")])
        run_cli(["report", "--run", str(run_dir), "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "curves.svg").read_bytes() == (
            tmp_path / "r2" / "curves.svg"
        ).read_bytes()

    def test_report_missing_run_dir_exits_3(self, tmp_path, capsys):
        code = run_cli(
            ["report", "--run", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_RUNTIME

    def test_resume_matches_straight_run(self, tmp_path, desk_config):
        cfg3 = desk_config(epochs=3)
        cfg1 = desk_config(epochs=1)
        p3 = tmp_path / "cfg3.json"
        p1 = tmp_path / "cfg1.json"
        p3.write_text(json.dumps(cfg3.to_dict()))
        p1.write_text(json.dumps(cfg1.to_dict()))

        straight = tmp_path / "straight"
        resumed = tmp_path / "resumed"
        assert run_cli(["train", "--config", str(p3), "--out", str(straight)]) == EXIT_OK
        assert run_cli(["train", "--config", str(p1), "--out", str(resumed)]) == EXIT_OK
        assert run_cli(
            ["train", "--config", str(p3), "--out", str(resumed),
             "--resume", str(resumed / "state_epoch0.json")]
        ) == EXIT_OK
        for e in range(3):
            assert (straight / f"state_epoch{e}.json").read_bytes() == (
                resumed / f"state_epoch{e}.json"
            ).read_bytes()

    def test_eval_label_out_of_checkpoint_range_exits_2(
        self, run_dir, tmp_path, capsys
    ):
        state = json.loads((run_dir / "state_epoch1.json").read_text())
        ckpt = tmp_path / "student.json"
        ckpt.write_text(json.dumps(state["student"]))
        wide = tmp_path / "wide.jsonl"
        wide.write_text('{"text":"x y","label":5}\n')
        code = run_cli(
            ["eval", "--checkpoint", str(ckpt), "--data", str(wide),
             "--metric", "accuracy"]
        )
        assert code == EXIT_VALIDATION
        assert "out of range" in capsys.readouterr().err

    def test_single_epoch_svg_renders(self, tmp_path, desk_config):
        cfg = desk_config(epochs=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run1"
        run_cli(["train", "--config", str(cfg_path), "--out", str(out)])
        rep = tmp_path / "rep1"
        assert run_cli(["report", "--run", str(out), "--out", str(rep)]) == EXIT_OK
        assert "<circle" in (rep / "curves.svg").read_text()


def _student(**changes):
    payload = {"dims": 8, "class_count": 2, "bias": [0.0, 0.5], "columns": [1, 4],
               "weights": [0.1, 0.2, 0.3, 0.4]}
    return {**payload, **changes}


MALFORMED_STUDENTS = {
    "unsorted-columns": (_student(columns=[4, 1]), "strictly increasing"),
    "duplicate-columns": (_student(columns=[4, 4]), "strictly increasing"),
    "negative-column": (_student(columns=[-1, 4]), "strictly increasing"),
    "column-past-dims": (_student(columns=[1, 8]), "strictly increasing"),
    # numpy holds the first as float64 and the second as Python ints.
    "column-past-int64": (_student(columns=[1, 2**63, 4]), "strictly increasing"),
    "column-past-float": (_student(columns=[1, 2**1100, 4]), "strictly increasing"),
    "bool-column": (_student(columns=[1, True]), "$.student.columns[1]: expected integer, got bool"),
    "float-column": (_student(columns=[1, 4.0]), "$.student.columns[1]: expected integer, got float"),
    "int-weight-past-float": (_student(weights=[0.1, 10**400, 0.3, 0.4]), "$.student.weights[1]: expected a finite number"),
    "short-weights": (_student(weights=[0.1, 0.2, 0.3]), "weights length"),
    "short-bias": (_student(bias=[0.0]), "bias length"),
    "nan-weight": (_student(weights=[0.1, float("nan"), 0.3, 0.4]), "$.student.weights[1]: expected a finite number"),
    "inf-bias": (_student(bias=[float("-inf"), 0.5]), "$.student.bias[0]: expected a finite number"),
    "string-weight": (_student(weights=["0.1", 0.2, 0.3, 0.4]), "$.student.weights[0]: expected number, got str"),
    "bool-weight": (_student(weights=[0.1, True, 0.3, 0.4]), "$.student.weights[1]: expected number, got bool"),
    "string-bias": (_student(bias=["0", 0.5]), "$.student.bias[0]: expected number, got str"),
    "bool-bias": (_student(bias=[0.0, True]), "$.student.bias[1]: expected number, got bool"),
    "legacy-dense": (
        {"dims": 8, "class_count": 2, "bias": [0.0, 0.5], "weights": [0.0] * 16},
        "dense student format",
    ),
    # Both are refused before the class_count x dims matrix is allocated.
    "dims-past-max": (_student(dims=2**62), "dims must be a power of two in [2, 16777216], got 4611686018427387904"),
    "class-count-past-bias": (_student(class_count=2**62), "bias length does not match class_count"),
}


@pytest.mark.parametrize("payload,message", MALFORMED_STUDENTS.values(), ids=MALFORMED_STUDENTS)
def test_malformed_checkpoint_rejected(payload, message, tmp_path, desk_config, desk_dataset_path, capsys):
    with pytest.raises(ValidationError, match=re.escape(message)):
        params_from_dict(payload)
    ckpt = tmp_path / "student.json"
    ckpt.write_text(json.dumps(payload))
    code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(desk_dataset_path),
                    "--metric", "accuracy"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"malformed {ckpt}: " in err and message in err
    assert _resume_from(_set("student", value=payload), tmp_path, desk_config) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "malformed run state: " in err and message in err
    assert not (tmp_path / "resumed").exists()


def _resume_from(corrupt, tmp_path, desk_config, epochs=1):
    """Exit code of `gpta train --resume` into tmp_path/resumed from the
    last state of a desk run of `epochs` epochs, rewritten by corrupt(text);
    the surrogate escape \\udcXX writes the byte XX, so the text need not
    stay UTF-8."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(desk_config(epochs=epochs).to_dict()))
    out = tmp_path / "run"
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    state = tmp_path / "bad_state.json"
    text = corrupt((out / f"state_epoch{epochs - 1}.json").read_text(encoding="utf-8"))
    state.write_text(text, encoding="utf-8", errors="surrogateescape")
    return run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "resumed"),
                    "--resume", str(state)])


def _edit(change):
    """A state corruption that applies change(obj) to the JSON object."""
    def corrupt(text):
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)
    return corrupt


def _set(*path, value):
    """A state corruption that sets the value at `path` in the JSON object."""
    def change(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return _edit(change)


MALFORMED_STATES = {
    "truncated": lambda text: text[: len(text) // 2],
    "empty-object": lambda text: "{}",
    "unknown-record-key": lambda text: text.replace('"finetune_error"', '"finetune_err"'),
    "missing-best-key": lambda text: text.replace('"best":{"prefix"', '"best":{"prefix_"'),
    "string-record-value": _set("records", 0, "train_loss", value="x"),
    "string-best-score": _set("best", "score", value="x"),
    "string-epoch": _set("epoch", value="1"),
    "epoch-behind-records": _set("epoch", value=0),
    "string-frozen": _set("student_frozen", value="yes"),
    "string-sim-calls": _set("ta", "sim", "calls", value="1"),
    "negative-sim-rng-seed": _set("ta", "sim", "rng_seed", value=-1),
    "number-history-prefix": _set("history", 0, "prefix", value=3),
    "generated-origin-without-place": _set("history", 0, "origin", value={"kind": "generated"}),
    "unknown-top-level-key": _set("extra", value=1),
    "history-without-empty-prefix": _edit(lambda obj: obj.update(history=[e for e in obj["history"] if e["prefix"]])),
    "duplicated-history-entry": _edit(lambda obj: obj["history"].insert(0, obj["history"][0])),
    "unsorted-history": _edit(lambda obj: obj["history"].reverse()),
    "empty-history": _set("history", value=[]),
    "epoch-zero-with-empty-history": _edit(lambda obj: obj.update(epoch=0, records=[], best=None, history=[])),
    "null-best": _set("best", value=None),
    "best-score-above-records": _set("best", "score", value=1.45),
    "best-without-records": _edit(lambda obj: obj.update(epoch=0, records=[])),
    # The state's one epoch is its best, so best.prefix must be that epoch's best history entry.
    "best-prefix-not-in-history": _set("best", "prefix", value="never proposed by anyone"),
    "best-prefix-not-the-history-best": _edit(lambda obj: obj["best"].update(prefix="")),
}


@pytest.mark.parametrize("corrupt", MALFORMED_STATES.values(), ids=MALFORMED_STATES)
def test_resume_from_malformed_state_exits_2(corrupt, tmp_path, desk_config, capsys):
    assert _resume_from(corrupt, tmp_path, desk_config) == EXIT_VALIDATION
    assert "malformed run state" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()


# Corruptions of state_epoch1.json of a 2-epoch desk run, whose best epoch is 0:
# the best prefix is then the one that epoch 1 trained on, not the history's best.
MIDDLE_OF_RUN_STATES = {
    "best-prefix-not-proposed": _set("best", "prefix", value="never proposed by anyone"),
    "later-train-prefix-edited": _set("records", 1, "train_prefix", value="never proposed by anyone"),
    "generation-past-finetunes": _set("ta", "generation", value=7),
}


@pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
@pytest.mark.parametrize("corrupt", MIDDLE_OF_RUN_STATES.values(), ids=MIDDLE_OF_RUN_STATES)
def test_resume_from_malformed_middle_of_run_state_exits_2(corrupt, metric, tmp_path, desk_config, capsys):
    def checked(text):
        obj = json.loads(text)
        assert obj["best"]["epoch"] == 0 and obj["epoch"] == 2
        return corrupt(text)

    config = functools.partial(desk_config, metric=metric)
    assert _resume_from(checked, tmp_path, config, epochs=2) == EXIT_VALIDATION
    assert "malformed run state" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("saved,data", [(2, 4), (4, 2)])
def test_resume_against_data_of_other_class_count_exits_2(saved, data, tmp_path, desk_config, capsys):
    paths = {n: tmp_path / f"synth{n}.jsonl" for n in (saved, data)}
    for n, path in paths.items():
        write_jsonl(synth_generate(n, 60, 80, 0.1, 3), path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(desk_config(data_path=str(paths[saved]), epochs=1).to_dict()))
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == EXIT_OK
    cfg_path.write_text(json.dumps(desk_config(data_path=str(paths[data]), epochs=2).to_dict()))
    code = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "resumed"),
                    "--resume", str(tmp_path / "run" / "state_epoch0.json")])
    assert code == EXIT_VALIDATION
    assert f"the state's student has {saved} classes, the data {data}" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()


def test_underflowing_train_loss_stays_finite(tmp_path, desk_config):
    # At lr 10 some training examples get probability exactly 0 for their label.
    data = tmp_path / "small.jsonl"
    write_jsonl(synth_generate(2, 40, 60, 0.3, 3), data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(desk_config(data_path=str(data), lr=10.0).to_dict()))
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(straight)]) == EXIT_OK
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(resumed),
                    "--resume", str(straight / "state_epoch0.json")]) == EXIT_OK
    for name in ("state_epoch2.json", "gradients_epoch2.jsonl", "report.json", "metrics.csv"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes()
    # gpta report refuses a non-finite train_loss
    assert run_cli(["report", "--run", str(straight), "--out", str(tmp_path / "rep")]) == EXIT_OK


@pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
def test_eval_reads_a_run_state_through_its_student(metric, tmp_path, desk_config, desk_dataset_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(desk_config(epochs=1).to_dict()))
    assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == EXIT_OK
    state_path = tmp_path / "run" / "state_epoch0.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    student_path = tmp_path / "student.json"
    student_path.write_text(json.dumps(state["student"]))
    capsys.readouterr()
    scores = []
    for ckpt in (state_path, student_path):
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(desk_dataset_path),
                        "--metric", metric, "--prefix", "focus on the signal"]) == EXIT_OK
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1] and float(scores[0]) != 0.0

    state["student"]["bias"][1] = True
    state_path.write_text(json.dumps(state))
    assert run_cli(["eval", "--checkpoint", str(state_path), "--data", str(desk_dataset_path),
                    "--metric", metric]) == EXIT_VALIDATION
    assert f"malformed {state_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
@pytest.mark.parametrize("hash_seed", [0, -5])
def test_eval_reproduces_the_runs_validation_score(hash_seed, metric, tmp_path, desk_config, capsys):
    cfg = desk_config(metric=metric, hash_seed=hash_seed)
    best = run(cfg, tmp_path / "run").best
    write_jsonl(prepare(cfg).val, tmp_path / "val.jsonl")
    capsys.readouterr()

    def evaluated(seed):
        assert run_cli(["eval", "--checkpoint", str(tmp_path / "run" / f"state_epoch{best.epoch}.json"),
                        "--data", str(tmp_path / "val.jsonl"), "--prefix", best.prefix,
                        "--metric", metric, "--hash-seed", str(seed)]) == EXIT_OK
        return capsys.readouterr().out

    assert evaluated(hash_seed) == f"{best.score:.6f}\n"
    if hash_seed:
        assert evaluated(0) != f"{best.score:.6f}\n"


def test_resume_from_a_state_past_the_configured_epochs_exits_2(tmp_path, desk_config, capsys):
    """A state of 3 epochs under an epochs-2 config would write a 3-epoch
    report next to a config.json that says 2."""
    paths = {}
    for epochs in (2, 3):
        paths[epochs] = tmp_path / f"cfg{epochs}.json"
        paths[epochs].write_text(json.dumps(desk_config(epochs=epochs).to_dict()))
    first = tmp_path / "first"
    assert run_cli(["train", "--config", str(paths[3]), "--out", str(first)]) == EXIT_OK
    code = run_cli(["train", "--config", str(paths[2]), "--out", str(tmp_path / "resumed"),
                    "--resume", str(first / "state_epoch2.json")])
    assert code == EXIT_VALIDATION
    assert "cannot resume: the state has 3 epochs, the config 2" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()
    # A resume at exactly the configured epochs runs none and reports them all.
    assert run_cli(["train", "--config", str(paths[2]), "--out", str(tmp_path / "done"),
                    "--resume", str(first / "state_epoch1.json")]) == EXIT_OK
    assert not list((tmp_path / "done").glob("state_epoch*.json"))
    assert len(json.loads((tmp_path / "done" / "report.json").read_text())["epochs"]) == 2


def test_resume_under_another_backend_exits_2(tmp_path, desk_config, capsys):
    out = tmp_path / "run"
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(desk_config(epochs=1).to_dict()))
    assert run_cli(["train", "--config", str(sim_cfg), "--out", str(out)]) == EXIT_OK
    config_before = (out / "config.json").read_bytes()
    remote_cfg = tmp_path / "remote.json"
    remote = desk_config(epochs=2, ta_backend="remote", base_url="http://127.0.0.1:9")
    remote_cfg.write_text(json.dumps(remote.to_dict()))
    code = run_cli(["train", "--config", str(remote_cfg), "--out", str(out),
                    "--resume", str(out / "state_epoch0.json")])
    assert code == EXIT_VALIDATION
    assert "saved under the 'simulated' assistant backend, but the config selects 'remote'" \
        in capsys.readouterr().err
    assert (out / "config.json").read_bytes() == config_before
    assert not (out / "state_epoch1.json").exists()


def test_eval_truncated_checkpoint_exits_2(tmp_path, desk_dataset_path, capsys):
    ckpt = tmp_path / "student.json"
    ckpt.write_text(json.dumps(_student())[:20])
    code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(desk_dataset_path),
                    "--metric", "accuracy"])
    assert code == EXIT_VALIDATION
    assert "invalid JSON" in capsys.readouterr().err


def test_eval_checkpoint_with_unknown_key_exits_2(tmp_path, desk_dataset_path, capsys):
    ckpt = tmp_path / "student.json"
    ckpt.write_text(json.dumps(_student(extra=1)))
    code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(desk_dataset_path),
                    "--metric", "accuracy"])
    assert code == EXIT_VALIDATION
    assert "unknown keys ['extra']" in capsys.readouterr().err


_RECORD = {"epoch": 0, "train_prefix": "p", "train_loss": 0.5, "val_best": 0.9,
           "val_empty": 0.8, "improvement_rate": 0.1, "finetune_error": None}

MALFORMED_REPORTS = {
    "truncated": '{"epochs": [',
    "no-epochs": "{}",
    "not-object": "[]",
    "unknown-record-key": json.dumps({"epochs": [{**_RECORD, "extra": 1}]}),
    "missing-record-key": json.dumps({"epochs": [{k: v for k, v in _RECORD.items() if k != "val_best"}]}),
    "string-loss": json.dumps({"epochs": [{**_RECORD, "train_loss": "x"}]}),
    "null-prefix": json.dumps({"epochs": [_RECORD, {**_RECORD, "train_prefix": None}]}),
    "bool-epoch": json.dumps({"epochs": [{**_RECORD, "epoch": True}]}),
    "number-error": json.dumps({"epochs": [{**_RECORD, "finetune_error": 3}]}),
    "no-records": json.dumps({"epochs": []}),
}


@pytest.mark.parametrize("text", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS)
def test_report_from_malformed_report_json_exits_2(text, tmp_path, capsys):
    (tmp_path / "report.json").write_text(text)
    code = run_cli(["report", "--run", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "malformed" in capsys.readouterr().err


def test_report_names_the_mistyped_record_value(tmp_path, capsys):
    records = [_RECORD, {**_RECORD, "epoch": 1, "train_loss": "x"}]
    (tmp_path / "report.json").write_text(json.dumps({"epochs": records}))
    code = run_cli(["report", "--run", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "$.epochs[1].train_loss: expected number, got str" in capsys.readouterr().err


INVALID_CONFIG_VALUES = {
    "nan-lr": ('"lr": NaN', "$.lr: expected a finite number"),
    "infinite-temperature": ('"temperature": Infinity', "$.temperature: expected a finite number"),
    "unreachable-k": ('"k": 14', "k=14 is unreachable"),
    "negative-lr": ('"lr": -1', "lr must be >= 0, got -1.0"),
    "zero-request-timeout": ('"request_timeout_s": 0', "request_timeout_s must be > 0, got 0.0"),
    "negative-retry-backoff": ('"retry_backoff_s": -0.5', "retry_backoff_s must be >= 0, got -0.5"),
    "negative-poll-interval": ('"poll_interval_s": -1', "poll_interval_s must be >= 0, got -1.0"),
    "negative-finetune-timeout": ('"finetune_timeout_s": -1', "finetune_timeout_s must be >= 0, got -1.0"),
    "negative-split-seed": ('"split_seed": -1', "split_seed must be >= 0, got -1"),
    "negative-shuffle-seed": ('"shuffle_seed": -1', "shuffle_seed must be >= 0, got -1"),
    "negative-sim-seed": ('"sim_seed": -1', "sim_seed must be >= 0, got -1"),
    "negative-exemplar-seed": ('"exemplar_seed": -1', "exemplar_seed must be >= 0, got -1"),
    "not-json": ('"lr": }', "invalid JSON"),
    "fractions-past-one": ('"split_fractions": [0.5, 0.6, 0.1]', "fractions must sum to 1"),
    "exemplar-count-past-cap": ('"exemplar_count": 9', "exemplar_count must be <= 8, got 9"),
    "zero-sim-temperature-scale": ('"sim_temperature_scale": 0', "sim_temperature_scale must be > 0, got 0.0"),
    "dims-past-max": ('"dims": 4611686018427387904', "dims must be a power of two in [2, 16777216]"),
    "lone-surrogate": ('"task_summary": "x\\ud800"', "$.task_summary: expected a string that encodes as UTF-8"),
    "lone-surrogate-in-label-semantics": ('"label_semantics": ["\\ud800"]',
                                          "$.label_semantics[0]: expected a string that encodes as UTF-8"),
    "lone-surrogate-in-sim-pool": ('"sim_pool": ["x\\ud800"]', "$.sim_pool[0][0]: expected a string that encodes as UTF-8"),
    "base-url-without-scheme": ('"ta_backend": "remote", "base_url": "api.openai.com"',
                                "base_url must be an absolute http or https URL with a host"),
    "empty-data-path": ('"data_path": ""', "$.data_path: expected a non-empty path"),  # the last data_path wins
}


@pytest.mark.parametrize("entry,message", INVALID_CONFIG_VALUES.values(), ids=INVALID_CONFIG_VALUES)
def test_invalid_config_value_exits_2(entry, message, tmp_path, desk_dataset_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"data_path": {json.dumps(str(desk_dataset_path))}, {entry}}}')
    code = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"data_path": "caf\xe9.jsonl"}')
    code = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert f"malformed {cfg_path}: UnicodeDecodeError" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_resume_state_that_is_not_utf8_exits_2(tmp_path, desk_config, capsys):
    code = _resume_from(lambda text: text.replace('"epoch"', '"\udce9poch"'), tmp_path, desk_config)
    assert code == EXIT_VALIDATION
    assert "bad_state.json: UnicodeDecodeError" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()


def test_missing_data_path_exits_3_without_a_run_dir(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_path": str(tmp_path / "nope.jsonl")}))
    code = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_RUNTIME
    assert "nope.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_is_refused_before_the_data_file_is_read(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_path": str(tmp_path / "nope.jsonl"), "sim_pool": ["a", "a", "b"],
                                    "k": 3, "w": 1}))
    code = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert "duplicate pool prefix 'a'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_unreachable_remote_assistant_exits_3_without_a_run_dir(tmp_path, desk_config, monkeypatch, capsys):
    """The first proposal is asked for before the run directory is made."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    cfg = desk_config(ta_backend="remote", base_url=f"http://127.0.0.1:{port}", retry_backoff_s=0.0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    code = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_RUNTIME
    assert "failed after 3 attempts" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_prefix_that_is_not_utf8_exits_2(tmp_path, desk_dataset_path):
    """Through the real entry point with bytes argv: Python passes argument
    bytes that are not UTF-8 on as lone surrogates."""
    ckpt = tmp_path / "student.json"
    save_checkpoint(init_params(64, 2), ckpt)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "gpta", "eval", "--checkpoint", str(ckpt), "--data", str(desk_dataset_path),
            "--metric", "accuracy", "--prefix", b"a \xff"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, errors="replace", timeout=60)
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "gpta: validation error: --prefix is not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr
