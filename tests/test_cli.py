import hashlib
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import clustersweep
from clustersweep import naming
from clustersweep.cli import (
    RunConfig, _load_texts, build_parser, main, parse_threshold, resolve_config,
)
from clustersweep.data import EmbeddingMatrix, load_embeddings, load_partition, save_embeddings
from clustersweep.errors import ParseError
from clustersweep.gmm import GmmConfig, load_model
from clustersweep.pipeline import read_archive, run_sweep, write_archive

from conftest import failing_fit, make_blobs, make_matrix, spread_centers, write_binary_unchecked


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Embedding CSV plus aligned texts CSV for 4 small separated blobs."""
    root = tmp_path_factory.mktemp("fixture")
    data, truth = make_blobs(spread_centers(4, 12, 16.0), n_per=50, sigma=1.0, seed=61)
    save_embeddings(data, root / "emb.csv", "csv")
    themes = [
        "maga patriot usa",
        "vegan yoga peace",
        "crypto trader moon",
        "football fan club",
    ]
    with open(root / "texts.csv", "w") as fh:
        fh.write("id,text\n")
        for i, blob in enumerate(truth):
            fh.write(f"{data.ids[i]},loving {themes[blob]} daily\n")
    return root


def run_sweep_once(fixture_dir, out_dir, extra=()):
    return main([
        "sweep", "--input", str(fixture_dir / "emb.csv"),
        "--k-min", "1", "--k-max", "5", "--out", str(out_dir), *extra,
    ])


# Fit settings loose enough that refits under other settings disagree with the
# sweep at K=5..8 on the fixture.
LOOSE = ["--seed", "7", "--tol", "1e-9", "--max-iter", "3"]
SELF_SEED = ["--k-max", "8", "--kinds", "seeds", "--seed-lo", "7", "--seed-hi", "7"]


def sweep_loose(fixture_dir, out_dir):
    return main([
        "sweep", "--input", str(fixture_dir / "emb.csv"),
        "--k-max", "8", "--out", str(out_dir), *LOOSE,
    ])


def curve_means(path):
    return [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]


class TestThresholdParsing:
    def test_absolute(self):
        assert parse_threshold("150", 30000) == 150
        assert parse_threshold(" 150 ", 30000) == 150
        assert parse_threshold("0", 30000) == 0

    def test_percentage(self):
        assert parse_threshold("0.5%", 30000) == 150
        assert parse_threshold("5%", 600) == 30
        assert parse_threshold("100%", 600) == 600

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_threshold("many", 100)
        with pytest.raises(ValueError):
            parse_threshold("-3", 100)
        # A fraction is written as a percentage: "0.005" is "0.5%".
        # A count is ASCII digits; a percentage ASCII digits with at most one point.
        for text in ("inf%", "-5%", "150%", "0.005", "1.0", "1e3",
                     "+5", "1_000", "\u0663", "\u0663%", "1_0%", "+5%", "1e1%"):
            with pytest.raises(ValueError, match="bad threshold"):
                parse_threshold(text, 100)


class TestConfigResolution:
    def test_defaults_applied(self):
        args = build_parser().parse_args(["sweep"])
        config = resolve_config(args)
        assert config.k_min == 1 and config.k_max == 20
        assert config.seed == 0 and config.max_iter == 2000
        assert config.tol == 1e-3 and config.reg_covar == 1e-6
        assert config.fraction == 0.8 and config.reps == 100
        assert (config.seed_lo, config.seed_hi) == (1, 100)
        assert config.threshold == "150"

    def test_file_then_flags_precedence(self, tmp_path):
        (tmp_path / "run.json").write_text(json.dumps({"k_max": 7, "seed": 3}))
        args = build_parser().parse_args(
            ["sweep", "--config", str(tmp_path / "run.json"), "--seed", "9"]
        )
        config = resolve_config(args)
        assert config.k_max == 7  # from file
        assert config.seed == 9  # flag wins

    @pytest.mark.parametrize("command", ["sweep", "stability", "sankey", "name"])
    def test_one_config_file_serves_every_stage(self, tmp_path, command):
        doc = {**asdict(RunConfig()), "input": "emb.bin", "format": "bin", "jobs": 2}
        (tmp_path / "run.json").write_text(json.dumps(doc))
        args = build_parser().parse_args([command, "--config", str(tmp_path / "run.json")])
        config = resolve_config(args)
        assert (config.input, config.format, config.jobs) == ("emb.bin", "bin", 2)

    def test_unknown_config_key(self, tmp_path):
        (tmp_path / "run.json").write_text('{"mystery": 1}')
        args = build_parser().parse_args(["sweep", "--config", str(tmp_path / "run.json")])
        with pytest.raises(ValueError):
            resolve_config(args)

    @pytest.mark.parametrize("doc, named", [
        (["seed"], ["run.json", "JSON object"]),
        ("ab", ["run.json", "JSON object"]),
        (3, ["run.json", "JSON object"]),
        ({"k_max": "7"}, ["run.json", "'k_max'", "int"]),
        ({"fallback": "no"}, ["run.json", "'fallback'", "bool"]),
        ({"tol": math.nan}, ["tol", "finite"]),
        ({"reg_covar": math.inf}, ["reg_covar", "finite"]),
        ({"fraction": math.nan}, ["fraction"]),
        # A config.json written while --fit-reference, or --master-seed, existed.
        ({"fit_reference": False}, ["run.json", "'fit_reference'"]),
        ({"master_seed": 0}, ["run.json", "'master_seed'"]),
        ({"kinds": ["nope"]}, ["kinds", "'nope'"]),
        ({"jobs": 0}, ["jobs"]),
        ({"format": "xml"}, ["format", "'xml'"]),
        ({"reps": 0}, ["reps must be >= 1"]),
        # A config.json written while the key for --reps was repetitions.
        ({"repetitions": 100}, ["run.json", "'repetitions'"]),
        ({"k_min": 0}, ["k-min"]),
    ])
    def test_ill_typed_config_exits_1(self, tmp_path, capsys, doc, named):
        (tmp_path / "run.json").write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(tmp_path / "run.json")]) == 1
        err = capsys.readouterr().err
        assert all(word in err for word in named), err

    def test_non_utf8_config_exits_1_naming_it(self, tmp_path, capsys):
        # UTF-16 with its byte-order mark, as Windows Notepad's "Unicode" writes it.
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe" + '{"k_max": 3}'.encode("utf-16-le"))
        assert main(["sweep", "--config", str(path)]) == 1
        assert str(path) in capsys.readouterr().err


# Each subcommand's flags: only those it reads; --help is argparse's own.
ARCHIVE_FLAGS = {"--help", "--config", "--out", "--k-min", "--k-max"}
FIT_FLAGS = {"--seed", "--max-iter", "--tol", "--reg-covar"}
FLAGS = {
    "sweep": ARCHIVE_FLAGS | FIT_FLAGS | {"--input", "--format", "--jobs"},
    "stability": ARCHIVE_FLAGS | {
        "--jobs", "--kinds", "--fraction", "--reps", "--seed-lo", "--seed-hi",
    },
    "sankey": ARCHIVE_FLAGS | {"--threshold", "--names"},
    "name": ARCHIVE_FLAGS | {
        "--texts", "--backend-url", "--backend-model", "--response-path", "--token-env",
        "--fallback", "--fallback-on-error", "--stopwords", "--emoji-map",
    },
}
# The stage arguments the benchmark harness passes, as it spells them.
BENCH_COMMON = ["--out", "arch", "--k-min", "1", "--k-max", "20"]
BENCH_STAGES = [
    ["sweep", "--input", "emb.bin", "--format", "bin", "--seed", "0", "--jobs", "2",
     *BENCH_COMMON],
    ["stability", "--kinds", "dimensions", "rows", "seeds", "--reps", "1", "--seed-lo", "0",
     "--seed-hi", "1", "--jobs", "2", *BENCH_COMMON],
    ["sankey", "--threshold", "0.5%", *BENCH_COMMON],
    ["name", "--texts", "texts.csv", "--fallback", *BENCH_COMMON],
]


class TestParser:
    def test_every_field_parses_from_its_flag(self):
        parser = build_parser()
        samples = {
            "int": (["3"], 3), "float": (["0.5"], 0.5), "str": (["x"], "x"),
            "str | None": (["x"], "x"), "bool": ([], True),
            "list[str]": (["rows", "seeds"], ["rows", "seeds"]),
        }
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            values, expected = samples[f.type]
            assert f.metadata["commands"], f.name
            for command in f.metadata["commands"]:
                args = parser.parse_args([command, flag, *values])
                assert getattr(args, f.name) == expected, (command, flag)

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_the_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == FLAGS[command]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--k-max", "x"],
        ["stability", "--kinds", "columns"],
        ["sweep", "--n-init", "3"],
        ["sankey", "--jobs", "2"],
        ["name", "--input", "emb.csv"],
        ["stability", "--fit-reference"],
        ["stability", "--seed", "3"],
        ["name", "--tol", "0.001"],
        ["stability", "--master-seed", "0"],
        ["stability", "--input", "emb.csv"],
        ["stability", "--format", "bin"],
        ["sankey", "--thr", "5"],
        ["stability", "--kind", "seeds"],
    ], ids=["bad-int", "unknown-kind", "removed-flag", "sankey-jobs", "name-input",
            "removed-fit-reference", "stability-fit-flag", "name-fit-flag",
            "removed-master-seed", "stability-input", "stability-format",
            "abbreviated-threshold", "abbreviated-kinds"])
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", BENCH_STAGES, ids=lambda argv: argv[0])
    def test_benchmark_stage_arguments_parse(self, argv):
        config = resolve_config(build_parser().parse_args(argv))
        assert (config.out, config.k_min, config.k_max) == ("arch", 1, 20)
        assert config.explicit >= {"out", "k_min", "k_max"}


class TestSweepCommand:
    def test_missing_input_exits_2_and_names_path(self, capsys, tmp_path):
        code = main(["sweep", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_k_range_exits_1_before_loading(self, capsys, tmp_path):
        code = main([
            "sweep", "--input", str(tmp_path / "absent.csv"),
            "--k-min", "5", "--k-max", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 1  # config error beats the missing file

    @pytest.mark.parametrize("argv, message", [
        ([], "no input file given (--input or config file)"),
        (["--input", "{two_rows}", "--k-max", "5"], "n=2 rows cannot support k_max=5"),
    ], ids=["no-input", "k-max-above-n"])
    def test_no_input_or_too_few_rows_exits_1(self, tmp_path, capsys, argv, message):
        (tmp_path / "two.csv").write_text("id,e0\na,1.0\nb,2.0\n")
        argv = [a.format(two_rows=tmp_path / "two.csv") for a in argv]
        assert main(["sweep", "--out", str(tmp_path / "o"), *argv]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_1_naming_it_before_any_fit(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        fits = []
        monkeypatch.setattr("clustersweep.gmm.fit", lambda *a, **kw: fits.append(a[1].k))
        assert run_sweep_once(fixture_dir, tmp_path / "run", ["--seed", "-1"]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "run").exists()

    def test_archive_contents(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        for k in range(1, 6):
            assert (out / f"partition_{k}.csv").exists()
            assert (out / f"model_{k}.json").exists()
        assert (out / "consecutive_metrics.json").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["k_max"] == 5 and config["seed"] == 0
        assert config["max_iter"] == 2000  # defaults recorded too

    def test_prints_per_k_table(self, fixture_dir, tmp_path, capsys):
        run_sweep_once(fixture_dir, tmp_path / "run")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["K", "occupied"]
        assert len(lines) == 6
        rows = [line.split() for line in lines[1:]]
        assert rows[0][0] == "1" and rows[0][-2:] == ["-", "-"]
        doc = json.loads((tmp_path / "run" / "consecutive_metrics.json").read_text())
        assert [[row[0], *row[-2:]] for row in rows[1:]] == [
            [str(c["k_current"]), f"{c['ami']['ami']:.4f}", f"{c['stability']['average']:.4f}"]
            for c in doc
        ]

    def test_numeric_failure_exits_3(self, fixture_dir, tmp_path, monkeypatch):
        import clustersweep.pipeline as pipeline_module
        from clustersweep.errors import NumericFailure

        def poisoned(*args, **kwargs):
            raise NumericFailure("non-finite log-likelihood at K=2: nan")

        monkeypatch.setattr(pipeline_module, "run_sweep", poisoned)
        monkeypatch.setattr("clustersweep.cli.pipeline.run_sweep", poisoned)
        code = main([
            "sweep", "--input", str(fixture_dir / "emb.csv"),
            "--k-max", "3", "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_idempotent_byte_identical(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_sweep_once(fixture_dir, out1)
        run_sweep_once(fixture_dir, out2)
        for k in range(1, 6):
            assert (out1 / f"partition_{k}.csv").read_bytes() == (
                out2 / f"partition_{k}.csv"
            ).read_bytes()
        assert (out1 / "consecutive_metrics.json").read_bytes() == (
            out2 / "consecutive_metrics.json"
        ).read_bytes()


class TestStabilityCommand:
    def test_negative_seed_exits_1_naming_it_before_any_refit(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out, ["--k-max", "4"]) == 0
        fits = []
        monkeypatch.setattr("clustersweep.gmm.fit", lambda *a, **kw: fits.append(a[1].k))
        capsys.readouterr()
        assert main([
            "stability", "--out", str(out), "--k-max", "4", "--kinds", "dimensions", "seeds",
            "--reps", "2", "--seed-lo", "-1", "--seed-hi", "0",
        ]) == 1
        assert "seed_lo must be >= 0, got -1" in capsys.readouterr().err
        # An empty seed range names both keys, as given.
        assert main([
            "stability", "--out", str(out), "--k-max", "4", "--kinds", "dimensions", "seeds",
            "--reps", "2", "--seed-lo", "3", "--seed-hi", "2",
        ]) == 1
        assert "seed_hi (2) < seed_lo (3)" in capsys.readouterr().err
        assert fits == []
        assert not list(out.glob("stability_*"))

    def test_requires_archive_or_flag(self, fixture_dir, tmp_path, capsys):
        code = main(["stability", "--out", str(tmp_path / "missing"), "--kinds", "seeds"])
        assert code == 2
        assert "run the sweep first" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_self_seed_curve_is_one(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main([
            "stability", "--out", str(out),
            "--k-max", "5", "--kinds", "seeds", "--seed-lo", "0", "--seed-hi", "0",
        ])
        assert code == 0
        lines = (out / "stability_seeds.csv").read_text().splitlines()
        assert lines[0] == "k,mean_ami,std_ami"
        for line in lines[1:]:
            _, mean, std = line.split(",")
            assert float(mean) == 1.0 and float(std) == 0.0

    def test_single_repetition_zero_std(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main([
            "stability", "--out", str(out), "--k-max", "5",
            "--kinds", "rows", "--reps", "1",
        ])
        assert code == 0
        for line in (out / "stability_rows.csv").read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_three_kinds_write_three_curves_plus_combined(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main([
            "stability", "--out", str(out), "--k-max", "5",
            "--kinds", "dimensions", "rows", "seeds",
            "--reps", "2", "--seed-lo", "1", "--seed-hi", "2",
        ])
        assert code == 0
        for token in ("dimensions", "rows", "seeds"):
            lines = (out / f"stability_{token}.csv").read_text().splitlines()
            assert len(lines) == 6
        assert (out / "stability_combined.csv").exists()

    def test_combined_csv_holds_the_kinds_of_the_latest_run_only(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        args = ["stability", "--out", str(out), "--k-max", "5", "--reps", "2"]
        assert main([*args, "--kinds", "dimensions", "rows", "seeds",
                     "--seed-lo", "1", "--seed-hi", "2"]) == 0
        assert main([*args, "--kinds", "dimensions", "--fraction", "0.3"]) == 0
        combined = (out / "stability_combined.csv").read_text().splitlines()
        curve = (out / "stability_dimensions.csv").read_text().splitlines()
        assert combined[0] == "k,dimension_subsample_mean,dimension_subsample_std"
        assert combined[1:] == curve[1:]

    def test_empty_kinds_exits_1_before_touching_the_archive(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        before = sorted(p.name for p in out.iterdir())
        (tmp_path / "run.json").write_text('{"kinds": []}', encoding="utf-8")
        capsys.readouterr()
        assert main(["stability", "--out", str(out), "--config", str(tmp_path / "run.json")]) == 1
        assert "kinds is empty" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize("given, repeated", [
        (["--kinds", "seeds", "seeds"], "seeds"),
        ({"kinds": ["rows", "rows"]}, "rows"),
    ], ids=["flag", "config"])
    def test_repeated_kind_exits_1_naming_it_before_any_refit(
        self, fixture_dir, tmp_path, capsys, monkeypatch, given, repeated
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        assert main(["stability", "--out", str(out), "--k-max", "5", "--kinds", "rows", "seeds",
                     "--reps", "2", "--seed-lo", "1", "--seed-hi", "2"]) == 0
        before = {p.name: p.read_bytes() for p in out.glob("stability_*")}
        if isinstance(given, dict):
            (tmp_path / "run.json").write_text(json.dumps(given), encoding="utf-8")
            given = ["--config", str(tmp_path / "run.json")]
        fits, reads = [], []
        monkeypatch.setattr("clustersweep.gmm.fit", lambda *a, **kw: fits.append(a[1].k))
        monkeypatch.setattr("clustersweep.pipeline.read_archive", reads.append)
        capsys.readouterr()
        assert main(["stability", "--out", str(out), "--k-max", "5", *given]) == 1
        assert f"given more than once: ['{repeated}']" in capsys.readouterr().err
        assert fits == [] and reads == []
        assert {p.name: p.read_bytes() for p in out.glob("stability_*")} == before

    def test_run_whose_second_kind_fails_leaves_no_combined_csv(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        args = ["stability", "--out", str(out), "--k-max", "5", "--kinds", "dimensions", "seeds",
                "--reps", "2", "--seed-lo", "1", "--seed-hi", "2"]
        assert main(args) == 0
        assert (out / "stability_combined.csv").exists()
        # The first kind's refits fit as usual; once its curve is written, K=3 fails.
        write_curve = clustersweep.stability.write_curve

        def write_then_fail_k3(curve, out_dir):
            write_curve(curve, out_dir)
            monkeypatch.setattr("clustersweep.stability.gmm.fit", failing_fit("nan", k=3))

        monkeypatch.setattr("clustersweep.stability.write_curve", write_then_fail_k3)
        assert main(args) == 3
        assert (out / "stability_dimensions.csv").exists()
        assert not (out / "stability_combined.csv").exists()

    def test_refits_use_archived_fit_settings(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert sweep_loose(fixture_dir, out) == 0
        assert main(["stability", "--out", str(out), *SELF_SEED]) == 0
        assert curve_means(out / "stability_seeds.csv") == [1.0] * 8

    def test_conflicting_fit_setting_exits_1(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        sweep_loose(fixture_dir, out)
        config = ["--config", str(tmp_path / "run.json")]
        stages = {
            "stability": ["stability", "--out", str(out), *SELF_SEED, *config],
            "name": ["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
                     "--fallback", *config],
        }
        for doc, setting in (({"seed": 3}, "seed"), ({"tol": 0.001}, "tol")):
            (tmp_path / "run.json").write_text(json.dumps(doc))
            for stage, argv in stages.items():
                capsys.readouterr()
                assert main(argv) == 1, stage
                assert f"{setting} conflicts" in capsys.readouterr().err, stage
        # A config file restating the archived values is no conflict.
        (tmp_path / "run.json").write_text('{"seed": 7, "tol": 1e-9, "max_iter": 3}')
        for stage, argv in stages.items():
            assert main(argv) == 0, stage

    def test_library_archive_fit_settings(self, fixture_dir, tmp_path):
        data = load_embeddings(fixture_dir / "emb.csv")
        base = GmmConfig(k=1, seed=7, tol=1e-9, max_iter=3)
        write_archive(run_sweep(data, base, 1, 8), tmp_path / "lib")
        code = main(["stability", "--out", str(tmp_path / "lib"), *SELF_SEED])
        assert code == 0
        assert curve_means(tmp_path / "lib" / "stability_seeds.csv") == [1.0] * 8

    @pytest.mark.parametrize("failure, code, message", [
        ("nan", 3, "non-finite log-likelihood at K=3 in seed_variation seed 1: nan"),
        ("raise", 2, "while fitting K=3 in seed_variation seed 1: synthetic failure"),
    ], ids=["nan", "raise"])
    def test_failed_refit_exits_naming_kind_seed_and_k(
        self, fixture_dir, tmp_path, capsys, monkeypatch, failure, code, message
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        monkeypatch.setattr("clustersweep.stability.gmm.fit", failing_fit(failure, k=3))
        capsys.readouterr()
        assert main([
            "stability", "--out", str(out), "--k-max", "5",
            "--kinds", "seeds", "--seed-lo", "1", "--seed-hi", "2",
        ]) == code
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(out.glob("stability_*"))

    def test_rows_curve_ignores_the_row_order_of_partition_files(self, fixture_dir, tmp_path):
        # A refit is scored against the sweep's labels of its own ids, found by id.
        out, reordered = tmp_path / "run", tmp_path / "reordered"
        assert sweep_loose(fixture_dir, out) == 0
        shutil.copytree(out, reordered)
        for k in range(2, 9):  # partition_1.csv must list input.bin's order
            path = reordered / f"partition_{k}.csv"
            header, *rows = path.read_text().splitlines(keepends=True)
            path.write_text(header + "".join(reversed(rows)))
        for archive in (out, reordered):
            assert main(["stability", "--out", str(archive), "--k-max", "8", "--kinds", "rows",
                         "--reps", "2"]) == 0
        curve = (out / "stability_rows.json").read_bytes()
        assert (reordered / "stability_rows.json").read_bytes() == curve
        assert json.loads(curve)["mean_ami"][1:] != [1.0] * 7  # the labels are not trivial

    def test_input_remembered_from_archive(self, fixture_dir, tmp_path):
        # The refits use input.bin, whatever the sweep's input file holds later.
        emb = tmp_path / "emb.csv"
        emb.write_bytes((fixture_dir / "emb.csv").read_bytes())
        out = tmp_path / "run"
        assert main(["sweep", "--input", str(emb), "--k-max", "5", "--out", str(out)]) == 0
        # Other values under the same ids and d.
        data = load_embeddings(emb)
        other = np.random.default_rng(0).normal(size=data.values.shape)
        save_embeddings(make_matrix(other, data.ids), emb, "csv")
        argv = ["stability", "--out", str(out), "--k-max", "5",
                "--kinds", "seeds", "--seed-lo", "0", "--seed-hi", "0"]
        assert main(argv) == 0
        assert curve_means(out / "stability_seeds.csv") == [1.0] * 5
        emb.unlink()
        assert main(argv) == 0
        assert curve_means(out / "stability_seeds.csv") == [1.0] * 5

    def test_archive_without_input_bin_exits_2_before_any_refit(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        argv = ["stability", "--out", str(out), "--k-max", "5", "--kinds", "rows", "seeds",
                "--reps", "1", "--seed-lo", "1", "--seed-hi", "1"]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.glob("stability_*")}
        (out / "input.bin").unlink()
        fits = []
        monkeypatch.setattr("clustersweep.gmm.fit", lambda *args: fits.append(args))
        capsys.readouterr()
        assert main(argv) == 2
        assert "has no input.bin; run the sweep again" in capsys.readouterr().err
        assert fits == []
        assert {p.name: p.read_bytes() for p in out.glob("stability_*")} == before

    @pytest.mark.parametrize("rows, columns, message", [
        (range(120), range(12), "ids differ from partition_1.csv's"),
        ([1, 0, *range(2, 200)], range(12), "ids differ from partition_1.csv's"),
        (range(200), range(11), "d=11 where model_1.json has d=12"),
    ], ids=["other-ids", "two-rows-swapped", "other-d"])
    def test_input_bin_of_another_sweep_exits_2_naming_it(
        self, fixture_dir, tmp_path, capsys, rows, columns, message
    ):
        out, other = tmp_path / "run", tmp_path / "other"
        run_sweep_once(fixture_dir, out)
        data = load_embeddings(fixture_dir / "emb.csv")
        values = data.values[np.ix_(list(rows), list(columns))]
        save_embeddings(make_matrix(values, [data.ids[r] for r in rows]), tmp_path / "other.csv",
                        "csv")
        assert main(["sweep", "--input", str(tmp_path / "other.csv"), "--k-max", "5",
                     "--out", str(other)]) == 0
        (out / "input.bin").write_bytes((other / "input.bin").read_bytes())
        with pytest.raises(ParseError, match=re.escape(message)):
            read_archive(out)
        capsys.readouterr()
        assert main(["stability", "--out", str(out), "--k-max", "5", "--kinds", "seeds",
                     "--seed-lo", "1", "--seed-hi", "1"]) == 2
        assert f"{out / 'input.bin'}: {message}" in capsys.readouterr().err
        assert not (out / "stability_seeds.csv").exists()


class TestEveryStageChecksInputBin:
    """stability, sankey and name refuse an archive whose input.bin is missing or not its own."""

    @pytest.mark.parametrize("case, message", [
        ("missing", "has no input.bin; run the sweep again"),
        ("other-ids", "input.bin: ids differ from partition_1.csv's"),
        ("other-d", "input.bin: d=11 where model_1.json has d=12"),
    ], ids=["missing", "other-ids", "other-d"])
    @pytest.mark.parametrize("stage", [
        ["stability", "--k-max", "5", "--kinds", "seeds", "--seed-lo", "1", "--seed-hi", "1"],
        ["sankey"],
        ["name", "--fallback"],
    ], ids=lambda stage: stage[0])
    def test_exits_2_naming_input_bin_before_any_fit(
        self, fixture_dir, tmp_path, capsys, monkeypatch, stage, case, message
    ):
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        data = load_embeddings(fixture_dir / "emb.csv")
        if case == "missing":
            (out / "input.bin").unlink()
        elif case == "other-ids":
            save_embeddings(data.subset_rows(range(120)), out / "input.bin", "bin")
        else:
            save_embeddings(data.subset_columns(range(11)), out / "input.bin", "bin")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fits = []
        monkeypatch.setattr("clustersweep.gmm.fit", lambda *args: fits.append(args))
        capsys.readouterr()
        texts = ["--texts", str(fixture_dir / "texts.csv")] if stage[0] == "name" else []
        assert main([*stage, "--out", str(out), *texts]) == 2
        assert message in capsys.readouterr().err
        assert fits == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestArchiveRange:
    """Stages take the K range from the archive, not from --k-min."""

    @pytest.fixture()
    def archive(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert main([
            "sweep", "--input", str(fixture_dir / "emb.csv"), "--out", str(out),
            "--k-min", "2", "--k-max", "5", *LOOSE,
        ]) == 0
        return out

    def test_sankey_reads_the_archive_range(self, archive):
        assert main(["sankey", "--out", str(archive)]) == 0
        nodes = json.loads((archive / "graph.json").read_text())["nodes"]
        assert {n["id"].split("-")[0] for n in nodes} == {"K2", "K3", "K4", "K5"}

    def test_name_reads_the_archive_range(self, fixture_dir, archive):
        texts = ["--texts", str(fixture_dir / "texts.csv"), "--fallback"]
        assert main(["name", "--out", str(archive), *texts]) == 0
        rows = (archive / "names.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"2", "3", "4", "5"}

    def test_stability_needs_the_archive_to_cover_the_range(self, fixture_dir, archive, capsys):
        # --k-min defaults to 1, below the archive's K=2.
        code = main([
            "stability", "--out", str(archive),
            "--k-max", "5", "--kinds", "seeds", "--seed-lo", "7", "--seed-hi", "7",
        ])
        assert code == 1
        assert "K 2..5" in capsys.readouterr().err
        assert not (archive / "stability_seeds.csv").exists()


class TestSankeyCommand:
    def test_requires_archive(self, tmp_path, capsys):
        assert main(["sankey", "--out", str(tmp_path / "none")]) == 2

    def test_full_threshold_empties_edges(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main(["sankey", "--out", str(out), "--threshold", "100%"])
        assert code == 0
        doc = json.loads((out / "graph.json").read_text())
        assert doc["edges"] == []

    def test_default_labels_without_name_table(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        main(["sankey", "--out", str(out), "--threshold", "0"])
        doc = json.loads((out / "graph.json").read_text())
        assert all(n["label"] == n["id"] for n in doc["nodes"])

    def test_fractional_threshold_matches_recomputation(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        main(["sankey", "--out", str(out), "--threshold", "5%"])
        doc = json.loads((out / "graph.json").read_text())
        # Recompute the retained edge set from the partition files.
        parts = {k: load_partition(out / f"partition_{k}.csv", k) for k in range(1, 6)}
        n = parts[1].n_items
        cutoff = round(0.05 * n)
        expected = set()
        for k in range(1, 5):
            counts = np.zeros((k, k + 1), dtype=int)
            np.add.at(counts, (parts[k].labels, parts[k + 1].labels), 1)
            for i in range(k):
                for j in range(k + 1):
                    if counts[i, j] >= cutoff and counts[i, j] > 0:
                        expected.add((f"K{k}-C{i}", f"K{k + 1}-C{j}", int(counts[i, j])))
        got = {(e["source"], e["target"], e["flow"]) for e in doc["edges"]}
        assert got == expected

    def test_name_table_labels_used(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"])
        main(["sankey", "--out", str(out), "--threshold", "0", "--names", str(out / "names.csv")])
        doc = json.loads((out / "graph.json").read_text())
        assert any(n["label"] != n["id"] for n in doc["nodes"])

    def test_sankey_and_name_compute_no_ami(self, fixture_dir, tmp_path, monkeypatch):
        def no_ami(table):
            raise AssertionError("AMI computed after the sweep")

        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        monkeypatch.setattr("clustersweep.metrics.ami_from_table", no_ami)
        monkeypatch.setattr("clustersweep.pipeline.ami_from_table", no_ami)
        assert main(["sankey", "--out", str(out)]) == 0
        assert main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
                     "--fallback"]) == 0
        with pytest.raises(AssertionError, match="AMI computed"):  # the patch takes effect
            run_sweep_once(fixture_dir, tmp_path / "again")

    def test_corrupt_model_file_exits_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        (out / "model_3.json").write_text('{"k": 3}')
        assert main(["sankey", "--out", str(out)]) == 2
        assert "model_3.json" in capsys.readouterr().err
        (out / "model_3.json").unlink()
        assert main(["sankey", "--out", str(out)]) == 2
        assert "model_3.json" in capsys.readouterr().err

    def test_corrupt_partition_file_exits_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        path = out / "partition_2.csv"
        path.write_bytes(path.read_bytes().replace(b"\n0,", b"\n\xff0,", 1))
        assert main(["sankey", "--out", str(out)]) == 2
        assert "partition_2.csv: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("{id},9", "partition_3.csv: row 0: label 9 is not in [0, 3)"),
        ("{id},-1", "partition_3.csv: row 0: label -1 is not in [0, 3)"),
        ("{line}\n{line}", "partition_3.csv: id '{id}' repeats in rows 0 and 1"),
        ("{id}", "partition_3.csv: row 0: not an id,label pair: '{id}'"),
    ], ids=["label-above-k", "negative-label", "repeated-row", "no-comma"])
    def test_partition_breaking_the_archive_rules_exits_2_naming_it(
        self, fixture_dir, tmp_path, capsys, row, message
    ):
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        path = out / "partition_3.csv"
        header, line, *rest = path.read_text().splitlines()
        first_row = {"id": line.split(",")[0], "line": line}
        path.write_text("\n".join([header, row.format(**first_row), *rest]) + "\n")
        capsys.readouterr()
        for command in ("sankey", "stability"):
            assert main([command, "--out", str(out)]) == 2
            assert message.format(**first_row) in capsys.readouterr().err

    def test_partition_id_with_a_trailing_space_exits_2(self, fixture_dir, tmp_path, capsys):
        # Every partition file agrees on the id, and partitions are read before input.bin:
        # the id rule alone catches it.
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        for path in out.glob("partition_*.csv"):
            header, line, *rest = path.read_text().splitlines()
            row_id, label = line.split(",")
            path.write_text("\n".join([header, f"{row_id} ,{label}", *rest]) + "\n")
        capsys.readouterr()
        assert main(["sankey", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"partition_\d+\.csv: row 0: id ", err) and repr(f"{row_id} ") in err

    @pytest.mark.parametrize("row, message", [
        (b"x,0,5,foo,fallback", "names.csv: row 1: k and cluster must be integers"),
        (b"2,0,\xff,\xff,fallback", "names.csv: not UTF-8"),
        (b"2,0,a", "names.csv: row 1: short name-table row"),
    ])
    def test_bad_name_table_exits_2(self, fixture_dir, tmp_path, capsys, row, message):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        names = tmp_path / "names.csv"
        names.write_bytes(b"k,cluster,raw_name,unique_name,backend\n1,0,a,a,fallback\n" + row)
        assert main(["sankey", "--out", str(out), "--names", str(names)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["model-of-k5", "config-k5"])
    @pytest.mark.parametrize("stage", [["sankey"], ["name", "--fallback"]], ids=lambda s: s[0])
    def test_model_file_of_another_k_exits_2_naming_it(
        self, fixture_dir, tmp_path, capsys, stage, case
    ):
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        if case == "model-of-k5":
            shutil.copyfile(out / "model_5.json", out / "model_3.json")
        else:
            doc = json.loads((out / "model_3.json").read_text())
            doc["config"]["k"] = 5
            (out / "model_3.json").write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        texts = ["--texts", str(fixture_dir / "texts.csv")] if stage[0] == "name" else []
        assert main([*stage, "--out", str(out), *texts]) == 2
        assert "model_3.json holds K=" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"n_init": 1, "init_method": "kmeans"},
        {"n_init": 5},
        {"init_method": "random-responsibility"},
        {"covariance": "diag"},
    ])
    def test_archive_with_retired_fit_settings(self, fixture_dir, tmp_path, capsys, entry):
        """A retired fit setting is an unknown field at any value: exit 2, naming the model."""
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        path = out / "model_3.json"
        doc = json.loads(path.read_text())
        doc["config"].update(entry)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sankey", "--out", str(out)]) == 2
        assert "model_3.json" in capsys.readouterr().err


class TestNameCommand:
    def test_requires_archive(self, fixture_dir, tmp_path):
        code = main([
            "name", "--out", str(tmp_path / "none"),
            "--texts", str(fixture_dir / "texts.csv"), "--fallback",
        ])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--fallback"], "naming needs --texts"),
        (["--texts", "texts.csv"], "no --backend-url configured"),
    ], ids=["no-texts", "no-backend"])
    def test_settings_are_checked_before_the_archive_is_read(self, tmp_path, capsys, argv,
                                                             message):
        assert main(["name", "--out", str(tmp_path / "none"), *argv]) == 1
        assert message in capsys.readouterr().err

    def test_fallback_deterministic_bytes(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"])
        first = (out / "names.csv").read_bytes()
        main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"])
        assert (out / "names.csv").read_bytes() == first

    def test_fallback_logs_no_fallback_warning(self, fixture_dir, tmp_path, caplog):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        ids = read_archive(out).partitions[1].ids
        texts = tmp_path / "stopwords-only.csv"
        texts.write_text("id,text\n" + "".join(f"{i},the and\n" for i in ids), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="clustersweep.naming"):
            assert main(["name", "--out", str(out), "--texts", str(texts), "--fallback"]) == 0
        assert not [r for r in caplog.records
                    if r.name == "clustersweep.naming" and "using fallback" in r.getMessage()]

    def test_covers_every_occupied_cluster(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"])
        archive = read_archive(out)
        expected = sum(archive.partitions[k].occupied_clusters() for k in range(1, 6))
        lines = (out / "names.csv").read_text().splitlines()
        assert len(lines) == expected + 1

    def test_backend_unavailable_exits_4(self, fixture_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        monkeypatch.setattr("clustersweep.naming.time.sleep", lambda s: None)
        code = main([
            "name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
            "--backend-url", "http://127.0.0.1:9/nope",
        ])
        assert code == 4

    def test_needs_backend_or_fallback(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv")])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--texts", "--stopwords", "--emoji-map"])
    def test_non_utf8_file_exits_2_naming_it(self, fixture_dir, tmp_path, capsys, flag):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"id,text\n0,caf\xe9\n")
        # A repeated --texts takes the last one.
        texts = ["--texts", str(fixture_dir / "texts.csv")]
        assert main(["name", "--out", str(out), "--fallback", *texts, flag, str(bad)]) == 2
        assert f"{bad}:" in capsys.readouterr().err

    def test_unreachable_stub_exits_4_after_three_attempts(
        self, fixture_dir, tmp_path, monkeypatch, capsys, http_stub
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        sleeps = []
        monkeypatch.setattr("clustersweep.naming.time", SimpleNamespace(sleep=sleeps.append))
        http_stub.replies = [(503, b"busy")]
        code = main([
            "name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
            "--backend-url", http_stub.url,
        ])
        assert code == 4
        assert "after 3 attempts" in capsys.readouterr().err
        # K=1 is named first: its one cluster's three attempts end the run.
        assert len(http_stub.posts) == 3 and sleeps == [1.0, 2.0]
        assert not (out / "names.csv").exists()

    def test_unavailable_backend_stops_the_run_posting(
        self, fixture_dir, tmp_path, monkeypatch, http_stub
    ):
        out = tmp_path / "run"
        assert main([
            "sweep", "--input", str(fixture_dir / "emb.csv"), "--out", str(out),
            "--k-min", "7", "--k-max", "7",
        ]) == 0
        monkeypatch.setattr(naming, "BACKOFF_S", 0)
        http_stub.replies = [(503, b"busy")]
        argv = ["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
                "--backend-url", http_stub.url]
        assert main(argv) == 4
        # Only the clusters in flight when the first one gave up have posted.
        assert len(http_stub.posts) <= naming.MAX_IN_FLIGHT * naming.RETRIES
        http_stub.posts.clear()
        assert main([*argv, "--fallback-on-error"]) == 0
        rows = (out / "names.csv").read_text().splitlines()[1:]
        assert len(rows) == 7 and all(row.endswith(",fallback") for row in rows)
        assert len(http_stub.posts) == 7 * naming.RETRIES

    def test_wrong_response_path_falls_back_per_cluster(self, fixture_dir, tmp_path, http_stub):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        texts = ["--texts", str(fixture_dir / "texts.csv")]
        assert main(["name", "--out", str(out), *texts, "--fallback"]) == 0
        offline = (out / "names.csv").read_bytes()
        (out / "names.csv").unlink()
        code = main([
            "name", "--out", str(out), *texts, "--backend-url", http_stub.url,
            "--response-path", "choices.0.text",
        ])
        assert code == 0
        assert (out / "names.csv").read_bytes() == offline
        assert len(http_stub.posts) == len(offline.splitlines()) - 1

    def test_numeric_response_field_falls_back_for_its_cluster(
        self, fixture_dir, tmp_path, caplog, http_stub
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        http_stub.replies = [(200, b'{"name": 42}'), (200, b'{"name": "Stub"}')]
        with caplog.at_level(logging.WARNING, logger="clustersweep.naming"):
            assert main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
                         "--backend-url", http_stub.url]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.name == "clustersweep.naming"]
        assert len(warnings) == 1 and "field 'name' is not text" in warnings[0], warnings
        rows = (out / "names.csv").read_text().splitlines()[1:]
        assert [row.endswith(",fallback") for row in rows].count(True) == 1

    def test_missing_text_ids_reported(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        (tmp_path / "short.csv").write_text("id,text\n0,only one\n")
        code = main([
            "name", "--out", str(out), "--texts", str(tmp_path / "short.csv"), "--fallback",
        ])
        assert code == 2

    def test_repeated_text_id_exits_2_naming_both_rows(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        texts = tmp_path / "texts.csv"
        texts.write_text((fixture_dir / "texts.csv").read_text() + "7,another text\n")
        assert main(["name", "--out", str(out), "--texts", str(texts), "--fallback"]) == 2
        assert f"{texts}: id '7' repeats in rows 7 and 200" in capsys.readouterr().err

    @pytest.mark.parametrize("row, fields", [("7,proud dad, runner and maga", 3), ("7", 1)],
                             ids=["unquoted-comma", "one-field"])
    def test_texts_row_without_two_fields_exits_2_naming_it(
        self, fixture_dir, tmp_path, capsys, row, fields
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        lines = (fixture_dir / "texts.csv").read_text().splitlines(keepends=True)
        lines[1 + 7] = row + "\n"  # the header, then rows 0..7
        texts = tmp_path / "texts.csv"
        texts.write_text("".join(lines))
        capsys.readouterr()
        assert main(["name", "--out", str(out), "--texts", str(texts), "--fallback"]) == 2
        assert f"{texts}: row 7 is not an id,text pair (fields: {fields})" in capsys.readouterr().err

    def test_quoted_comma_stays_in_the_text(self, tmp_path):
        (tmp_path / "texts.csv").write_text('id,text\n7,loving yoga\n9,"quoted, fine"\n')
        assert _load_texts(tmp_path / "texts.csv") == {"7": "loving yoga", "9": "quoted, fine"}

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_each_text_reads_back_exactly_at_any_line_ending(self, tmp_path, newline):
        rows = ["id,text", "7,loving yoga", '9,"two\r\nlines, quoted"', '11,"one\nmore"', "12,end"]
        (tmp_path / "texts.csv").write_bytes(newline.join(rows).encode() + newline.encode())
        assert _load_texts(tmp_path / "texts.csv") == {
            "7": "loving yoga", "9": "two\r\nlines, quoted", "11": "one\nmore", "12": "end"}

    def test_tokenizes_each_id_once_in_any_partition_row_order(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        argv = ["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"]
        assert main(argv) == 0
        in_order = (out / "names.csv").read_bytes()
        header, *rows = (out / "partition_3.csv").read_text().splitlines(keepends=True)
        (out / "partition_3.csv").write_text(header + "".join(reversed(rows)))
        calls = []
        tokenize = naming.tokenize
        monkeypatch.setattr(naming, "tokenize", lambda *args: calls.append(args) or tokenize(*args))
        assert main(argv) == 0
        assert len(calls) == 200  # once per id of the archive, not once per id and K
        assert (out / "names.csv").read_bytes() == in_order


def _load_sweep_config(path):
    return resolve_config(build_parser().parse_args(["sweep", "--config", str(path)]))


def _load_partition_rows(path):
    partition = load_partition(path, k_declared=3)
    return partition.ids, partition.labels.tolist()


def _load_model_fields(path):
    model, config = load_model(path)
    return config, model.k, model.means.tolist(), model.n_iter, model.converged


MODEL_JSON = ('{"k": 1, "weights": [1.0], "means": [[0.5]], "variances": [[2.0]], "config": '
              '{"k": 1, "max_iter": 2000, "tol": 0.001, "reg_covar": 1e-06, "seed": 0}, '
              '"final_log_likelihood": -1.0, "n_iter": 3, "converged": true}\n')


class TestByteOrderMark:
    """Excel's "CSV UTF-8" and some editors start a text file with a UTF-8 byte-order mark."""

    @pytest.mark.parametrize("text, load", [
        ("1.2573,0.5,-3.25\n2.0,1.5,0.75\n", load_embeddings),
        ("id,e0,e1\n10,1.0,2.0\n11,3.0,4.0\n", load_embeddings),
        ("id,text\n1,loving yoga\n2,moon\n", _load_texts),
        ("the\nand\n", naming.load_stopwords),
        ("k,cluster,raw_name,unique_name,backend\n2,0,yoga,yoga,fallback\n",
         naming.load_name_table),
        ('{"\U0001f525": "fire"}', naming.load_emoji_map),
        ('{"seed": 3, "k_max": 6}', _load_sweep_config),
        ("id,label\na,0\nb,2\nc,1\n", _load_partition_rows),
        (MODEL_JSON, _load_model_fields),
    ], ids=["embeddings", "embeddings-with-ids", "texts", "stopwords", "name-table",
            "emoji-map", "config", "partition", "model"])
    def test_loads_equal_to_the_file_without_one(self, tmp_path, text, load):
        def loaded():
            value = load(path)
            if isinstance(value, EmbeddingMatrix):  # it has no __eq__
                return value.ids, value.values.shape, value.values.tobytes()
            return value

        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        plain = loaded()
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert loaded() == plain


class TestTextFiles:
    """Every text file is read as UTF-8, a byte-order mark skipped, and written with LF."""

    @pytest.fixture(scope="class")
    def archive(self, fixture_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("text-files") / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        return out

    NAME = ["name", "--out", "{out}", "--fallback", "--texts", "{texts}"]

    @pytest.mark.parametrize("file, argv, code", [
        ("emb.csv", ["sweep", "--input", "{file}", "--out", "{out}"], 2),
        ("run/partition_2.csv", ["sankey", "--out", "{out}"], 2),
        ("run/model_3.json", ["sankey", "--out", "{out}"], 2),
        ("texts.csv", ["name", "--out", "{out}", "--fallback", "--texts", "{file}"], 2),
        ("names.csv", ["sankey", "--out", "{out}", "--names", "{file}"], 2),
        ("stopwords.txt", [*NAME, "--stopwords", "{file}"], 2),
        ("emoji.json", [*NAME, "--emoji-map", "{file}"], 2),
        ("run.json", ["sweep", "--config", "{file}"], 1),
    ], ids=["embeddings", "partition", "model", "texts", "name-table", "stopwords",
            "emoji-map", "config"])
    def test_a_file_that_is_not_utf8_exits_naming_it(
        self, fixture_dir, archive, tmp_path, capsys, file, argv, code
    ):
        out = tmp_path / "run"
        shutil.copytree(archive, out)
        path = tmp_path / file
        path.write_bytes("id,text\n".encode("utf-16"))  # UTF-16, with its byte-order mark
        argv = [a.format(file=path, out=out, texts=fixture_dir / "texts.csv") for a in argv]
        capsys.readouterr()
        assert main(argv) == code
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_no_file_of_a_four_stage_run_holds_a_carriage_return(self, fixture_dir, archive,
                                                                  tmp_path):
        out = tmp_path / "run"
        shutil.copytree(archive, out)
        stages = [
            ["stability", "--k-max", "5", "--reps", "1", "--seed-lo", "1", "--seed-hi", "1"],
            ["name", "--texts", str(fixture_dir / "texts.csv"), "--fallback"],
            ["sankey", "--threshold", "0", "--names", str(out / "names.csv")],
        ]
        for stage in stages:
            assert main([*stage, "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir() if p.name != "input.bin")  # binary
        assert {"config.json", "graph.html", "names.csv", "stability_combined.csv"} <= set(written)
        assert [name for name in written if b"\r" in (out / name).read_bytes()] == []


class TestDocumentedErrors:
    """Each file error README documents exits with its code and names the file."""

    @pytest.fixture(scope="class")
    def archive(self, fixture_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("errors") / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        return out

    SWEEP = ["sweep", "--input", "{file}", "--out", "{out}"]
    SWEEP_BIN = [*SWEEP, "--format", "bin"]
    SANKEY = ["sankey", "--out", "{out}"]

    @pytest.mark.parametrize("file, content, argv, code, message", [
        ("run/partition_3.csv", None, SANKEY, 2,
         "{out}: partition files do not form a contiguous K range: [1, 2, 4, 5]"),
        ("run/partition_4.csv", b"id,label\nx,0\n", SANKEY, 2,
         "{out}: partition_4.csv covers a different id set"),
        ("run/partition_3.csv", b"", SANKEY, 2, "{file}: empty partition file"),
        ("emb.csv", b"", SWEEP, 2, "{file}: empty file"),
        ("emb.csv", b"id,e0,e1\n", SWEEP, 2, "{file}: no data rows"),
        # The binary header: magic, version, n and d; then n x d float64 values.
        ("emb.bin", b"CSEM" + struct.pack("<BQQ", 2, 2, 2) + bytes(32), SWEEP_BIN, 2,
         "{file}: unsupported version 2"),
        ("emb.bin", b"CSEM" + struct.pack("<BQQ", 1, 2, 2) + bytes(24), SWEEP_BIN, 2,
         "{file}: truncated value block"),
        ("run.json", None, ["sweep", "--config", "{file}"], 2, "config file not found: {file}"),
        ("run.json", b'{"k_max": 3,', ["sweep", "--config", "{file}"], 1,
         "{file}: invalid config JSON"),
        ("emb.csv", b"id\na\nb\n", SWEEP, 2, "{file}: no value columns"),
        ("emb.bin", b"CSEM" + struct.pack("<BQQ", 1, 2, 0) + b"a\nb", SWEEP_BIN, 2,
         "{file}: no value columns"),
        ("texts.csv", b"ident,text\n0,moon\n",
         ["name", "--out", "{out}", "--fallback", "--texts", "{file}"], 2,
         "{file}: texts file must be a CSV with an 'id,text' header"),
        ("emoji.json", b"{fire",
         ["name", "--out", "{out}", "--fallback", "--texts", "{texts}", "--emoji-map", "{file}"],
         2, "{file}: invalid emoji map JSON"),
    ], ids=["partition-missing", "partition-other-ids", "partition-empty", "csv-empty",
            "csv-header-only", "bin-version", "bin-truncated", "config-missing",
            "config-bad-json", "csv-ids-only", "bin-d-0", "texts-header", "emoji-map-not-json"])
    def test_exits_with_its_code_naming_the_file(
        self, fixture_dir, archive, tmp_path, capsys, file, content, argv, code, message
    ):
        out = tmp_path / "run"
        shutil.copytree(archive, out)
        path = tmp_path / file
        if content is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(content)
        capsys.readouterr()
        texts = fixture_dir / "texts.csv"
        assert main([a.format(file=path, out=out, texts=texts) for a in argv]) == code
        assert message.format(file=path, out=out) in capsys.readouterr().err


class TestDegenerateInputs:
    """Inputs with fewer distinct rows than clusters, or too little to subsample."""

    @staticmethod
    def write(tmp_path, values) -> list[str]:
        """The embedding and texts files of ``values``; returns the sweep's file flags."""
        data = make_matrix(values)
        save_embeddings(data, tmp_path / "emb.csv", "csv")
        (tmp_path / "texts.csv").write_text(
            "id,text\n" + "".join(f"{i},text number {int(i) % 3}\n" for i in data.ids)
        )
        return ["--input", str(tmp_path / "emb.csv"), "--out", str(tmp_path / "run")]

    @pytest.mark.parametrize("values", [
        np.full((60, 4), 0.5),
        np.repeat(np.arange(12.0).reshape(3, 4), 20, axis=0),
    ], ids=["constant-rows", "three-distinct-rows"])
    def test_every_stage_exits_0(self, tmp_path, values):
        files = self.write(tmp_path, values)
        run = ["--out", str(tmp_path / "run"), "--k-max", "8"]
        assert main(["sweep", *files, "--k-max", "8"]) == 0
        assert main(["stability", *run, "--reps", "2", "--seed-lo", "1", "--seed-hi", "2"]) == 0
        assert main(["sankey", *run, "--threshold", "1"]) == 0
        assert main(["name", *run, "--texts", str(tmp_path / "texts.csv"), "--fallback"]) == 0

    def test_one_column_cannot_be_subsampled(self, tmp_path, capsys):
        files = self.write(tmp_path, np.linspace(0.0, 1.0, 60).reshape(60, 1))
        assert main(["sweep", *files, "--k-max", "3"]) == 0
        assert main(["stability", "--out", str(tmp_path / "run"), "--k-max", "3"]) == 1
        assert "fraction 0.8 keeps no columns of d=1" in capsys.readouterr().err

    def test_row_fraction_below_k_max(self, tmp_path, capsys):
        files = self.write(tmp_path, np.random.default_rng(0).normal(size=(300, 4)))
        assert main(["sweep", *files, "--k-max", "8"]) == 0
        assert main([
            "stability", "--out", str(tmp_path / "run"), "--k-max", "8",
            "--fraction", "0.02", "--kinds", "rows",
        ]) == 1
        assert "keeps 6 rows < k_max=8" in capsys.readouterr().err

    @pytest.mark.parametrize("values, k_max, argv, message", [
        (np.linspace(0.0, 1.0, 60).reshape(60, 1), "3", ["--kinds", "seeds", "dimensions"],
         "fraction 0.8 keeps no columns of d=1"),
        (np.random.default_rng(0).normal(size=(300, 4)), "8",
         ["--kinds", "seeds", "rows", "--fraction", "0.02"], "keeps 6 rows < k_max=8"),
    ], ids=["seeds-then-one-column", "seeds-then-rows-below-k-max"])
    def test_every_kinds_fraction_is_checked_before_the_first_refit(
        self, tmp_path, capsys, monkeypatch, values, k_max, argv, message
    ):
        files = self.write(tmp_path, values)
        assert main(["sweep", *files, "--k-max", k_max]) == 0
        fits, real_fit = [], clustersweep.gmm.fit
        monkeypatch.setattr("clustersweep.gmm.fit",
                            lambda *a, **kw: fits.append(a[1].k) or real_fit(*a, **kw))
        capsys.readouterr()
        assert main([
            "stability", "--out", str(tmp_path / "run"), "--k-max", k_max,
            "--reps", "2", "--seed-lo", "1", "--seed-hi", "2", *argv,
        ]) == 1
        assert message in capsys.readouterr().err
        assert fits == []
        assert not list((tmp_path / "run").glob("stability_*"))


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clustersweep.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout and "sankey" in proc.stdout

    def test_help_under_a_module_runner(self):
        # runpy, as cProfile and similar runners use it, makes itself __main__.
        code = "import runpy; runpy.run_module('clustersweep.cli', run_name='__main__')"
        proc = subprocess.run(
            [sys.executable, "-c", code, "sankey", "--help"], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "--threshold" in proc.stdout


class TestIdRule:
    @pytest.mark.parametrize("row_id", ["b\r", " b", "b,c"])
    def test_id_breaking_the_rule_exits_2_naming_the_row(self, tmp_path, capsys, row_id):
        # Such an id would reach partition_K.csv, which could then not be read back.
        write_binary_unchecked(tmp_path / "emb.bin", np.eye(3), ["a", row_id, "c"])
        code = main(["sweep", "--input", str(tmp_path / "emb.bin"), "--format", "bin",
                     "--k-max", "2", "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"row 1: id {row_id!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestImportBoundary:
    """What a fresh process imports: never scipy, and requests only for the HTTP backend."""

    PROBE = (
        "import sys\n"
        "{body}\n"
        "loaded = sorted({{m.partition('.')[0] for m in sys.modules}} & {{'scipy', 'requests'}})\n"
        "print('loaded=' + ','.join(loaded))\n"
    )

    def loaded(self, body: str) -> str:
        env = {**os.environ, "PYTHONPATH": str(Path(clustersweep.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(body=body)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # The last line: a stage prints its own report before it.
        return proc.stdout.splitlines()[-1].removeprefix("loaded=")

    def test_exports_are_the_readme_library_imports(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        block = re.search(r"from clustersweep import \(([^)]*)\)", library).group(1)
        assert {name.strip() for name in block.split(",") if name.strip()} == set(
            clustersweep.__all__
        )

    @pytest.mark.parametrize("module", ["clustersweep", "clustersweep.cli"])
    def test_import_loads_neither(self, module):
        assert self.loaded(f"import {module}") == ""

    def test_sankey_and_fallback_naming_load_neither(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert run_sweep_once(fixture_dir, out) == 0
        for argv in (["sankey", "--out", str(out)],
                     ["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"),
                      "--fallback"]):
            body = f"from clustersweep.cli import main\nassert main({argv!r}) == 0"
            assert self.loaded(body) == "", argv

    def test_emi_sweep_and_stability_load_neither(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        sweep = ["sweep", "--input", str(fixture_dir / "emb.csv"), "--out", str(out),
                 "--k-max", "4"]
        stability = ["stability", "--out", str(out), "--k-max", "4", "--kinds", "dimensions",
                     "rows", "seeds", "--reps", "1", "--seed-lo", "1", "--seed-hi", "1"]
        body = ("from clustersweep.data import ContingencyTable\n"
                "from clustersweep.metrics import expected_mutual_information\n"
                "assert expected_mutual_information(ContingencyTable([[2, 1], [0, 3]])) > 0\n"
                "from clustersweep.cli import main\n"
                f"assert main({sweep!r}) == 0\n"
                f"assert main({stability!r}) == 0")
        assert self.loaded(body) == ""
        assert (out / "stability_combined.csv").exists()


def _archive_digests(out: Path) -> dict[str, str]:
    """Every archive file's sha256; config.json without its run-specific entries."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "config.json":
            doc = json.loads(data)
            del doc["out"], doc["jobs"]
            data = json.dumps(doc).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


class TestByteDeterminism:
    def test_archive_bytes_do_not_depend_on_jobs_or_blas_threads(self, tmp_path):
        # At 900 x 128 OpenBLAS splits the K=9 and K=10 products over its
        # threads, so unpinned BLAS makes those model_K.json floats depend on
        # the thread count.
        data, _ = make_blobs(spread_centers(6, 128, 8.0), n_per=150, sigma=1.0, seed=61)
        save_embeddings(data, tmp_path / "emb.bin", "bin")
        stages = [
            ["sweep", "--input", str(tmp_path / "emb.bin"), "--format", "bin"],
            ["stability", "--kinds", "dimensions", "rows", "seeds", "--reps", "1",
             "--seed-lo", "1", "--seed-hi", "1"],
        ]
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(clustersweep.__file__).parents[1])
        archives = {}
        for jobs in ("1", "2"):
            for threads in (None, "1", "2"):
                out = tmp_path / f"jobs{jobs}-blas{threads}"
                run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
                for stage in stages:
                    proc = subprocess.run(
                        [sys.executable, "-m", "clustersweep.cli", *stage, "--out", str(out),
                         "--k-max", "10", "--jobs", jobs],
                        env=run_env, capture_output=True, text=True, timeout=120,
                    )
                    assert proc.returncode == 0, proc.stderr
                archives[f"--jobs {jobs}, OPENBLAS_NUM_THREADS={threads}"] = _archive_digests(out)
        (first_run, first), *rest = archives.items()
        assert len(first) == 33  # config, input, 10 partitions, 10 models, metrics, 10 stability
        for run, digests in rest:
            differing = sorted(name for name in first if digests.get(name) != first[name])
            assert not differing and digests.keys() == first.keys(), (first_run, run, differing)
