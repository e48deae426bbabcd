"""End-to-end command-line workflows in temporary directories."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tracesvm import DualConfig, GeneratorConfig, SgdConfig, SplitSpec, load_model, save_model
from tracesvm import cli
from tracesvm.cli import _config, _from_flags, build_parser, main

FIG2_RAW = (
    "Unload of DLL at 04ED0000\n"
    "Unload of DLL at 04FC0000\n"
    "NtQueryPerformanceCounter( Counter=0x4e9f9c8 [3.01683e+009], Freq=null ) => 0\n"
    "NtProtectVirtualMemory( ProcessHandle=-1, BaseAddress=0x4e9f9f4 [0x77eae000], Size=0x4e9f9f8\n"
)

FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e300, 1.7976931348623157e308])
INTEGERS = st.integers(-3, 40) | st.integers()
# Epoch and sweep caps stay small enough for a quick test: with --tol 0 a
# run can use every epoch it is given.
CAPS = st.integers(-3, 300)
_SHARED_FLAGS = [("--tol", FLOATS), ("--seed", INTEGERS), ("--ngram-min", INTEGERS), ("--ngram-max", INTEGERS)]
# Every numeric flag of train, by trainer, with the values to draw for it.
NUMERIC_FLAGS = {
    "sgd": [("--alpha", FLOATS), ("--phi", FLOATS), ("--t0", FLOATS), ("--epochs", CAPS), *_SHARED_FLAGS],
    "dual-cd": [("--c", FLOATS), ("--max-outer", CAPS), *_SHARED_FLAGS],
}

CORPUS_FLAGS = ["--n-traces", "30", "--len-min", "12", "--len-max", "16", "--seed", "9"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen-corpus", *CORPUS_FLAGS, "--output-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = main(
        ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--output", str(out)]
    )
    assert code == 0
    return out


class TestGenCorpus:
    def test_writes_traces_and_manifest(self, corpus_dir, capsys):
        capsys.readouterr()
        assert (corpus_dir / "manifest.csv").exists()
        assert (corpus_dir / "trace_0000.txt").exists()
        assert len(list(corpus_dir.glob("trace_*.txt"))) == 30

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        assert main(["gen-corpus", *CORPUS_FLAGS, "--output-dir", str(tmp_path)]) == 0
        for p in sorted(corpus_dir.iterdir()):
            assert (tmp_path / p.name).read_bytes() == p.read_bytes()

    def test_bad_config_exits_cleanly(self, tmp_path, capsys):
        code = main(
            ["gen-corpus", "--n-traces", "1", "--output-dir", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "-1"], ["--motif-rate", "inf"], ["--motif-rate", "1e19"]],
        ids=["negative-seed", "infinite-rate", "rate-beyond-poisson"],
    )
    def test_bad_seed_or_motif_rate_exits_cleanly(self, tmp_path, capsys, flags):
        # numpy refuses these (a negative seed; a Poisson rate above about
        # 9.2e18), so the config must refuse them first.
        code = main(["gen-corpus", *flags, "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_reports_and_writes_model(self, corpus_dir, model_path, capsys):
        # retrain to observe the console lines (fixture already consumed them)
        out = model_path.parent / "again.json"
        code = main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--output", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "trained sgd model on 30 traces" in stdout
        assert "training accuracy: 1.0000" in stdout
        assert "training time:" in stdout
        assert out.exists()

    def test_model_bytes_reproducible(self, corpus_dir, model_path, tmp_path):
        out = tmp_path / "model2.json"
        main(["train", "--manifest", str(corpus_dir / "manifest.csv"), "--output", str(out)])
        assert out.read_bytes() == model_path.read_bytes()

    def test_dual_trainer_also_works(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "dual.json"
        code = main(
            [
                "train", "--manifest", str(corpus_dir / "manifest.csv"),
                "--trainer", "dual-cd", "--c", "10.0", "--tol", "1e-6",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert "trained dual-cd model" in capsys.readouterr().out
        assert json.loads(out.read_text())["trainer"] == "dual-cd"

    def test_single_class_manifest_rejected(self, corpus_dir, tmp_path, capsys):
        lines = (corpus_dir / "manifest.csv").read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if l.endswith(",malicious")]
        bad = tmp_path / "manifest.csv"
        bad.write_text("\n".join(kept) + "\n")
        for name in {l.split(",")[0] for l in kept[1:]}:
            (tmp_path / name).write_bytes((corpus_dir / name).read_bytes())
        code = main(["train", "--manifest", str(bad), "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_undecodable_manifest_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(b"path,label\n\xff.log,benign\n")
        code = main(["train", "--manifest", str(bad), "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "manifest.csv:2: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "grid-search"])
    def test_manifest_without_entries_exits_cleanly(self, model_path, tmp_path, capsys, command):
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(b"path,label\n")
        flags = ["--model", str(model_path)] if command == "evaluate" else ["--output", str(tmp_path / "out")]
        assert main([command, "--manifest", str(bad), *flags]) == 2
        assert capsys.readouterr().err == f"error: {bad}: no entries\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--alpha", "inf"), ("--t0", "nan")])
    def test_non_finite_sgd_setting_exits_cleanly(self, corpus_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        code = main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"), flag, value, "--output", str(out)]
        )
        assert code == 2
        assert f"error: {flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_numeric_flag_trains_a_loadable_model_or_exits_2(self, corpus_dir, data):
        trainer = data.draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
        flags = data.draw(st.lists(st.sampled_from(NUMERIC_FLAGS[trainer]), min_size=1, max_size=2, unique=True))
        settings_ = [f"{flag}={data.draw(values)!r}" for flag, values in flags]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "m.json"
            argv = ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--trainer", trainer,
                    *settings_, "--output", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
            if code == 0:
                load_model(out)
            else:
                assert code == 2 and err.getvalue().startswith("error: ")
                assert not out.exists()

    def test_diverging_sgd_settings_exit_cleanly(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(
                ["train", "--manifest", str(corpus_dir / "manifest.csv"), "--alpha", "1e-300", "--t0", "0",
                 "--output", str(out)]
            )
        assert code == 2
        assert "error: training diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code = main(
            ["train", "--manifest", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "m")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestModelFile:
    def test_save_load_save_round_trip(self, model_path, tmp_path):
        artifact = load_model(model_path)
        out = tmp_path / "resaved.json"
        save_model(artifact, out)
        assert out.read_bytes() == model_path.read_bytes()

    def test_no_timestamps_inside(self, model_path):
        doc = json.loads(model_path.read_text())
        assert set(doc) == {
            "format_version", "created_by", "trainer", "config", "ngram_min", "ngram_max",
            "alphabet", "vocabulary_prefix", "vocabulary_suffix", "vocabulary_suffix_len",
            "idf_table", "idf_index", "n_docs", "weight_bitmap", "weight_index", "weight_table", "bias",
        }
        assert doc["format_version"] == 4

    def test_corrupted_model_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not a model {{{")
        code = main(
            ["evaluate", "--model", str(bad), "--manifest", str(corpus_dir / "manifest.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_structurally_broken_model_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "hollow.json"
        bad.write_text('{"format_version": 1}\n')
        code = main(
            ["evaluate", "--model", str(bad), "--manifest", str(corpus_dir / "manifest.csv")]
        )
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_unknown_format_version_rejected(self, model_path, corpus_dir, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["format_version"] = 5
        future = tmp_path / "future.json"
        future.write_text(json.dumps(doc))
        code = main(
            ["evaluate", "--model", str(future), "--manifest", str(corpus_dir / "manifest.csv")]
        )
        assert code == 2
        assert "format_version 5" in capsys.readouterr().err


class TestEvaluate:
    def test_console_report(self, corpus_dir, model_path, capsys):
        code = main(
            ["evaluate", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.csv")]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Benign" in stdout and "Malware" in stdout and "Average/Total" in stdout
        assert "testing time:" in stdout
        assert "auc:" in stdout

    def test_testing_time_follows_the_table(self, corpus_dir, model_path, capsys):
        args = ["evaluate", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.csv")]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("Average/Total")
        assert lines[4].startswith("testing time: ") and lines[4].endswith(" s")
        assert lines[5].startswith("auc: ")

    def test_artifacts_reproducible(self, corpus_dir, model_path, tmp_path):
        args = ["evaluate", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.csv")]
        assert main([*args, "--output-dir", str(tmp_path / "a")]) == 0
        assert main([*args, "--output-dir", str(tmp_path / "b")]) == 0
        for name in ("report.txt", "report.csv", "roc.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()
            assert b"time" not in a  # timings never land in artifacts

    def test_rerun_replaces_linked_outputs(self, corpus_dir, model_path, tmp_path):
        # Each output is written as a new file: a hard link taken before a
        # rerun keeps the old bytes, and the path gets the new ones.
        args = ["evaluate", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.csv")]
        out = tmp_path / "reports"
        assert main([*args, "--output-dir", str(out)]) == 0
        old = {}
        for name in ("report.txt", "report.csv", "roc.csv"):
            old[name] = (out / name).read_bytes()
            (tmp_path / f"old-{name}").hardlink_to(out / name)
        # The second run scores the first 20 traces only, so every report differs.
        header, *entries = (corpus_dir / "manifest.csv").read_text().splitlines()
        fewer = tmp_path / "fewer.csv"
        fewer.write_text("\n".join([header, *(str(corpus_dir / e) for e in entries[:20])]) + "\n")
        assert main([*args[:-1], str(fewer), "--output-dir", str(out)]) == 0
        assert all((out / name).read_bytes() != old[name] for name in old)
        for name in ("report.txt", "report.csv", "roc.csv"):
            assert (tmp_path / f"old-{name}").read_bytes() == old[name]
            assert (out / name).stat().st_nlink == 1
        assert main([*args, "--output-dir", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "report.txt").read_bytes() == old["report.txt"]

    def test_single_class_rerun_removes_the_earlier_roc(self, corpus_dir, model_path, tmp_path, capsys):
        # A run that skips the ROC leaves no roc.csv beside its report, not
        # even one an earlier run wrote there.
        out = tmp_path / "reports"
        args = ["evaluate", "--model", str(model_path), "--output-dir", str(out), "--manifest"]
        assert main([*args, str(corpus_dir / "manifest.csv")]) == 0
        assert (out / "roc.csv").exists()
        header, *entries = (corpus_dir / "manifest.csv").read_text().splitlines()
        benign = tmp_path / "benign.csv"
        benign_entries = [str(corpus_dir / e) for e in entries if e.endswith(",benign")]
        benign.write_text("\n".join([header, *benign_entries]) + "\n")
        capsys.readouterr()
        assert main([*args, str(benign)]) == 0
        assert "roc skipped: ground truth has a single class" in capsys.readouterr().out
        assert (out / "report.csv").read_text().splitlines()[2] == "malware,0.0,0.0,0.0,0"
        assert not (out / "roc.csv").exists()

    def test_perfect_scores_on_training_corpus(self, corpus_dir, model_path, tmp_path):
        main(
            [
                "evaluate", "--model", str(model_path),
                "--manifest", str(corpus_dir / "manifest.csv"),
                "--output-dir", str(tmp_path),
            ]
        )
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[1] == "benign,1.0,1.0,1.0,11"
        assert lines[2] == "malware,1.0,1.0,1.0,19"
        roc = (tmp_path / "roc.csv").read_text().splitlines()
        assert roc[-1] == "auc,1.0"


class TestGridSearch:
    def test_small_grid(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "grid-search", "--manifest", str(corpus_dir / "manifest.csv"),
                "--alpha-grid", "0.001,0.0001", "--tol-grid", "0.01",
                "--output", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "searched 2 cells with trainer sgd" in stdout
        assert "best: alpha=" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,tol,f1"
        assert len(lines) == 3

    def test_negative_seed_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        code = main(
            [
                "grid-search", "--manifest", str(corpus_dir / "manifest.csv"), "--seed", "-1",
                "--alpha-grid", "0.001", "--tol-grid", "0.01", "--output", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sgd_cell_reaches_dual_cd_f1_on_short_traces(self, tmp_path):
        # On this corpus an undamped SGD bias step, about 1 per violation,
        # called every validation trace malware (F1 0.7786; dual CD: 1.0).
        corpus = tmp_path / "corpus"
        flags = ["--n-traces", "400", "--len-min", "20", "--len-max", "40", "--seed", "6"]
        assert main(["gen-corpus", *flags, "--output-dir", str(corpus)]) == 0
        out = tmp_path / "grid.csv"
        code = main(
            [
                "grid-search", "--trainer", "sgd", "--manifest", str(corpus / "manifest.csv"),
                "--alpha-grid", "1e-4", "--tol-grid", "1e-3", "--output", str(out),
            ]
        )
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[2]) >= 0.95

    def test_grid_csv_reproducible(self, corpus_dir, tmp_path):
        args = [
            "grid-search", "--manifest", str(corpus_dir / "manifest.csv"),
            "--trainer", "dual-cd", "--alpha-grid", "1.0,0.1", "--tol-grid", "0.001",
        ]
        assert main([*args, "--output", str(tmp_path / "a.csv")]) == 0
        assert main([*args, "--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--alpha-grid", "--tol-grid"])
    def test_non_numeric_grid_entry_exits_cleanly(self, corpus_dir, tmp_path, capsys, flag):
        code = main(
            [
                "grid-search", "--manifest", str(corpus_dir / "manifest.csv"),
                flag, "1e-3, abc", "--output", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == 2
        assert "error: grid entry 'abc' is not a number" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_infinite_alpha_cell_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        code = main(
            [
                "grid-search", "--manifest", str(corpus_dir / "manifest.csv"),
                "--alpha-grid", "inf,1e-4", "--tol-grid", "1e-3",
                "--output", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == 2
        assert "error: training failed at grid cell alpha=inf" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--tol", "--c"])
    def test_flags_the_grid_overwrites_are_refused(self, corpus_dir, tmp_path, capsys, flag):
        # Every cell sets alpha (C = 1/alpha for dual CD) and tol itself.
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "grid-search", "--manifest", str(corpus_dir / "manifest.csv"), flag, "1e-3",
                    "--alpha-grid", "0.001", "--tol-grid", "0.01", "--output", str(tmp_path / "grid.csv"),
                ]
            )
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("command", ["grid-search", "train"])
    def test_ngram_min_zero_exits_cleanly(self, corpus_dir, tmp_path, capsys, command):
        code = main(
            [
                command, "--manifest", str(corpus_dir / "manifest.csv"),
                "--ngram-min", "0", "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "error: need 1 <= n_min <= n_max" in capsys.readouterr().err


class TestTopFeatures:
    def test_v3_file_and_its_v4_resave_print_the_same(self, tmp_path, capsys):
        v3 = Path(__file__).parent / "data" / "model_v3.json"
        v4 = tmp_path / "model.json"
        save_model(load_model(v3), v4)
        outputs = []
        for path in (v3, v4):
            assert main(["top-features", "--model", str(path), "-k", "1000"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == len(load_model(v3).vocabulary)

    def test_prints_ranked_grams(self, model_path, capsys):
        code = main(["top-features", "--model", str(model_path), "-k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        weights = []
        for line in lines:
            weight, gram = line.split("\t")
            weights.append(float(weight))
            assert gram.startswith("nt")
        assert weights == sorted(weights, reverse=True)


class TestPreprocess:
    def test_mixed_directory(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "good.log").write_text(FIG2_RAW)
        (src / "junk.log").write_text("Unload of DLL at 04ED0000\n")
        out = tmp_path / "processed"
        code = main(["preprocess", str(src), "--output-dir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "processed 1/2 file(s)" in stdout
        assert "skipped" in stdout and "junk.log" in stdout
        assert (out / "good.txt").read_text() == (
            "ntqueryperformancecounter\nntprotectvirtualmemory\n"
        )
        assert not (out / "junk.txt").exists()

    def test_inputs_sharing_a_stem_keep_the_first(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "a.log").write_text(FIG2_RAW)
        (src / "a.txt").write_text("ntclose\n")
        out = tmp_path / "processed"
        assert main(["preprocess", str(src), "--output-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "processed 1/2 file(s)" in stdout
        assert f"skipped {src / 'a.txt'}: its output a.txt is already written from {src / 'a.log'}" in stdout
        assert [p.name for p in out.iterdir()] == ["a.txt"]
        assert (out / "a.txt").read_text() == "ntqueryperformancecounter\nntprotectvirtualmemory\n"

    def test_generated_manifest_is_not_read_as_a_log(self, tmp_path, capsys):
        raw = tmp_path / "rawc"
        assert main(["gen-corpus", "--n-traces", "6", "--seed", "1", "--raw", "--output-dir", str(raw)]) == 0
        capsys.readouterr()
        out = tmp_path / "processed"
        assert main(["preprocess", str(raw), "--output-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == f"processed 6/6 file(s) into {out}\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in raw.iterdir() if p.name != "manifest.csv"
        )

    def test_parameter_bytes_neither_drop_nor_add_calls(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "cp1252.log").write_bytes(b'NtCreateFile( ObjectAttributes="C:\\caf\xe9.txt" ) => 0\n')
        (src / "ff.log").write_bytes(b'NtClose( Name="a\x0cNtOpenKeyEx(" ) => 0\n')
        (src / "ls.log").write_bytes(b'NtClose( Name="a\xe2\x80\xa8NtOpenKeyEx(" ) => 0\n')
        out = tmp_path / "processed"
        assert main(["preprocess", str(src), "--output-dir", str(out)]) == 0
        assert "processed 3/3 file(s)" in capsys.readouterr().out
        assert (out / "cp1252.txt").read_bytes() == b"ntcreatefile\n"
        assert (out / "ff.txt").read_bytes() == b"ntclose\n"
        assert (out / "ls.txt").read_bytes() == b"ntclose\n"

    def test_empty_directory(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        code = main(["preprocess", str(src), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "no inputs" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code = main(["preprocess", str(tmp_path / "ghost"), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_single_file_input(self, tmp_path):
        raw = tmp_path / "one.log"
        raw.write_text(FIG2_RAW)
        out = tmp_path / "out"
        assert main(["preprocess", str(raw), "--output-dir", str(out)]) == 0
        assert (out / "one.txt").exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "tracesvm 0.1.0" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_parsed_state(self, corpus_dir, tmp_path):
        assert build_parser() is build_parser()
        manifest = str(corpus_dir / "manifest.csv")
        for seed, flags in ((5, ["--seed", "5"]), (0, [])):
            out = tmp_path / f"model-{seed}.json"
            assert main(["train", "--manifest", manifest, "--output", str(out), *flags]) == 0
            assert load_model(out).model.metadata["seed"] == seed

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


TRAIN = ("train", "--manifest", "m.csv", "--output", "model.json")
GRID = ("grid-search", "--manifest", "m.csv", "--output", "grid.csv")
GEN = ("gen-corpus", "--output-dir", "corpus")
DUAL = ("--trainer", "dual-cd")
# Every flag that sets a config field: (command, flag, value, config, field,
# the value it lands as).
FIELD_FLAGS = [
    *(
        (command, flag, value, SgdConfig, field, landed)
        for command in (TRAIN, GRID)
        for flag, value, field, landed in (
            ("--penalty", "l1", "penalty", "l1"),
            ("--phi", "0.25", "phi", 0.25),
            ("--epochs", "3", "epochs", 3),
            ("--t0", "7", "t0", 7.0),
            ("--seed", "5", "seed", 5),
        )
    ),
    (TRAIN, "--alpha", "0.25", SgdConfig, "alpha", 0.25),
    (TRAIN, "--tol", "0.25", SgdConfig, "tol", 0.25),
    (TRAIN + DUAL, "--c", "0.25", DualConfig, "C", 0.25),
    (TRAIN + DUAL, "--tol", "0.25", DualConfig, "tol", 0.25),
    (TRAIN + DUAL, "--max-outer", "3", DualConfig, "max_outer", 3),
    (TRAIN + DUAL, "--seed", "5", DualConfig, "seed", 5),
    (GRID + DUAL, "--max-outer", "3", DualConfig, "max_outer", 3),
    (GRID + DUAL, "--seed", "5", DualConfig, "seed", 5),
    (GRID, "--train-fraction", "0.25", SplitSpec, "train_fraction", 0.25),
    (GRID, "--seed", "5", SplitSpec, "seed", 5),
    (GEN, "--n-traces", "7", GeneratorConfig, "n_traces", 7),
    (GEN, "--malicious-fraction", "0.25", GeneratorConfig, "malicious_fraction", 0.25),
    (GEN, "--len-min", "3", GeneratorConfig, "trace_len_range", (3, 40)),
    (GEN, "--len-max", "50", GeneratorConfig, "trace_len_range", (20, 50)),
    (GEN, "--motif-rate", "0.25", GeneratorConfig, "motif_rate", 0.25),
    (GEN, "--seed", "5", GeneratorConfig, "seed", 5),
]


def _built(cls, argv, monkeypatch):
    """The ``cls`` config that the command ``argv`` builds from its flags."""
    args = build_parser().parse_args(argv)
    if cls is SplitSpec:
        return _from_flags(SplitSpec, args)
    if cls is GeneratorConfig:
        built = []

        def generate_corpus(config, output_dir, raw):
            built.append(config)
            return [], output_dir

        monkeypatch.setattr(cli, "generate_corpus", generate_corpus)
        assert cli.cmd_gen_corpus(args) == 0
        return built[0]
    return _config(args)


class TestFlagsSetConfigs:
    @pytest.mark.parametrize(
        "argv, cls",
        [
            (TRAIN, SgdConfig),
            (TRAIN + DUAL, DualConfig),
            (GRID, SgdConfig),
            (GRID + DUAL, DualConfig),
            (GRID, SplitSpec),
            (GEN, GeneratorConfig),
        ],
        ids=["train-sgd", "train-dual-cd", "grid-sgd", "grid-dual-cd", "grid-split", "gen-corpus"],
    )
    def test_flags_left_out_build_the_default_config(self, argv, cls, monkeypatch):
        assert _built(cls, list(argv), monkeypatch) == cls()

    @pytest.mark.parametrize(
        "argv, flag, value, cls, field, landed",
        FIELD_FLAGS,
        ids=[f"{argv[0]}-{cls.__name__}-{flag}" for argv, flag, _, cls, _, _ in FIELD_FLAGS],
    )
    def test_each_flag_lands_in_its_field(self, argv, flag, value, cls, field, landed, monkeypatch):
        assert _built(cls, [*argv, flag, value], monkeypatch) == replace(cls(), **{field: landed})

    def test_help_prints_the_class_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"(sgd, default {SgdConfig.alpha})" in text
        assert f"(dual-cd, default {DualConfig.C})" in text
        assert "default 1/alpha-1" in text
        assert "SUPPRESS" not in text


# For each command and trainer, flags that set a field only the other trainer's config has.
STRAY_FLAGS = [
    (TRAIN, "sgd", ["--c", "7", "--max-outer", "3"]),
    (TRAIN, "dual-cd", ["--alpha", "5", "--penalty", "l1", "--epochs", "3", "--phi", "0.5", "--t0", "2"]),
    (GRID, "sgd", ["--max-outer", "3"]),
    (GRID, "dual-cd", ["--penalty", "l1", "--epochs", "3"]),
]


def _refuse_reading(monkeypatch):
    """Make any read of a manifest or corpus fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was read before the flags were checked")

    monkeypatch.setattr(cli, "read_manifest", refuse)
    monkeypatch.setattr(cli, "load_corpus", refuse)


class TestFlagsCheckedFirst:
    @pytest.mark.parametrize(
        "argv, trainer, flags", STRAY_FLAGS, ids=[f"{argv[0]}-{trainer}" for argv, trainer, _ in STRAY_FLAGS]
    )
    def test_a_flag_the_trainer_does_not_read_is_refused(self, argv, trainer, flags, monkeypatch, capsys):
        _refuse_reading(monkeypatch)
        assert main([*argv, "--trainer", trainer, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"not read by --trainer {trainer}" in err
        for flag in flags[::2]:
            assert flag in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([*TRAIN, "--alpha", "inf"], "alpha must be finite"),
            ([*TRAIN, *DUAL, "--c", "0"], "C must be finite and > 0"),
            ([*GRID, "--alpha-grid", "1e-3,x"], "grid entry 'x' is not a number"),
            ([*GRID, "--tol-grid", "y"], "grid entry 'y' is not a number"),
            ([*GRID, "--train-fraction", "1"], "train_fraction must be in (0, 1)"),
        ],
    )
    def test_a_bad_setting_is_refused_before_the_corpus_is_read(self, argv, message, monkeypatch, capsys):
        _refuse_reading(monkeypatch)
        assert main(argv) == 2
        assert message in capsys.readouterr().err
