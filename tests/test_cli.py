import json
import math
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from clustersweep.cli import RunConfig, build_parser, main, parse_threshold, resolve_config
from clustersweep.data import load_embeddings, load_partition, save_embeddings
from clustersweep.gmm import GmmConfig
from clustersweep.pipeline import read_archive, run_sweep, write_archive

from conftest import make_blobs, spread_centers


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

    def test_percentage(self):
        assert parse_threshold("0.5%", 30000) == 150

    def test_fraction(self):
        assert parse_threshold("0.005", 30000) == 150

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_threshold("many", 100)
        with pytest.raises(ValueError):
            parse_threshold("-3", 100)


class TestConfigResolution:
    def test_defaults_applied(self):
        args = build_parser().parse_args(["sweep"])
        config = resolve_config(args)
        assert config.k_min == 1 and config.k_max == 20
        assert config.seed == 0 and config.max_iter == 2000
        assert config.tol == 1e-3 and config.reg_covar == 1e-6
        assert config.fraction == 0.8 and config.repetitions == 100
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
        ({"fit_reference": "no"}, ["run.json", "'fit_reference'", "bool"]),
        ({"tol": math.nan}, ["tol", "finite"]),
        ({"reg_covar": math.inf}, ["reg_covar", "finite"]),
        ({"fraction": math.nan}, ["fraction"]),
    ])
    def test_ill_typed_config_exits_1(self, tmp_path, capsys, doc, named):
        (tmp_path / "run.json").write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(tmp_path / "run.json")]) == 1
        err = capsys.readouterr().err
        assert all(word in err for word in named), err


# Each subcommand's flags; --help is argparse's own.
COMMON_FLAGS = {
    "--help", "--config", "--input", "--format", "--out", "--k-min", "--k-max", "--seed",
    "--max-iter", "--tol", "--reg-covar", "--jobs",
}
OWN_FLAGS = {
    "sweep": set(),
    "stability": {
        "--kinds", "--fraction", "--reps", "--seed-lo", "--seed-hi", "--master-seed",
        "--fit-reference",
    },
    "sankey": {"--threshold", "--names"},
    "name": {
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
            flag = "--reps" if f.name == "repetitions" else "--" + f.name.replace("_", "-")
            values, expected = samples[f.type]
            assert f.metadata["commands"], f.name
            for command in f.metadata["commands"]:
                args = parser.parse_args([command, flag, *values])
                assert getattr(args, f.name) == expected, (command, flag)

    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_help_lists_the_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == COMMON_FLAGS | OWN_FLAGS[command]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--k-max", "x"],
        ["stability", "--kinds", "columns"],
        ["sweep", "--n-init", "3"],
    ], ids=["bad-int", "unknown-kind", "removed-flag"])
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
    def test_requires_archive_or_flag(self, fixture_dir, tmp_path, capsys):
        code = main([
            "stability", "--input", str(fixture_dir / "emb.csv"),
            "--out", str(tmp_path / "missing"), "--kinds", "seeds",
        ])
        assert code == 2
        assert "archive" in capsys.readouterr().err

    def test_self_seed_curve_is_one(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main([
            "stability", "--input", str(fixture_dir / "emb.csv"), "--out", str(out),
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

    def test_fit_reference_without_archive(self, fixture_dir, tmp_path):
        out = tmp_path / "fresh"
        code = main([
            "stability", "--input", str(fixture_dir / "emb.csv"), "--out", str(out),
            "--k-min", "2", "--k-max", "3", "--kinds", "seeds",
            "--seed-lo", "1", "--seed-hi", "2", "--fit-reference",
        ])
        assert code == 0
        assert (out / "stability_seeds.csv").exists()

    def test_refits_use_archived_fit_settings(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert sweep_loose(fixture_dir, out) == 0
        assert main(["stability", "--out", str(out), *SELF_SEED]) == 0
        assert curve_means(out / "stability_seeds.csv") == [1.0] * 8

    def test_conflicting_fit_setting_exits_1(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        sweep_loose(fixture_dir, out)
        capsys.readouterr()
        assert main(["stability", "--out", str(out), *SELF_SEED, "--seed", "3"]) == 1
        assert "seed" in capsys.readouterr().err
        (tmp_path / "run.json").write_text('{"tol": 0.001}')
        config = ["--config", str(tmp_path / "run.json")]
        assert main(["stability", "--out", str(out), *SELF_SEED, *config]) == 1
        assert "tol" in capsys.readouterr().err
        texts = ["--texts", str(fixture_dir / "texts.csv"), "--fallback"]
        assert main(["name", "--out", str(out), *texts, "--seed", "3"]) == 1
        # Restating the archived value is no conflict.
        assert main(["stability", "--out", str(out), *SELF_SEED, *LOOSE]) == 0

    def test_library_archive_fit_settings(self, fixture_dir, tmp_path):
        data = load_embeddings(fixture_dir / "emb.csv")
        base = GmmConfig(k=1, seed=7, tol=1e-9, max_iter=3)
        write_archive(run_sweep(data, base, 1, 8), tmp_path / "lib")
        code = main([
            "stability", "--input", str(fixture_dir / "emb.csv"),
            "--out", str(tmp_path / "lib"), *SELF_SEED,
        ])
        assert code == 0
        assert curve_means(tmp_path / "lib" / "stability_seeds.csv") == [1.0] * 8

    def test_input_remembered_from_archive(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        code = main([
            "stability", "--out", str(out), "--k-max", "5",
            "--kinds", "seeds", "--seed-lo", "1", "--seed-hi", "1",
        ])
        assert code == 0


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

    def test_fit_reference_does_not_bypass_the_archive(self, fixture_dir, archive, capsys):
        code = main([
            "stability", "--out", str(archive), "--input", str(fixture_dir / "emb.csv"),
            "--fit-reference", "--k-max", "5", "--kinds", "seeds", "--seed-lo", "7",
            "--seed-hi", "7",
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
        main(["sankey", "--out", str(out), "--threshold", "0.05"])
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


    def test_corrupt_model_file_exits_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        (out / "model_3.json").write_text('{"k": 3}')
        assert main(["sankey", "--out", str(out)]) == 2
        assert "model_3.json" in capsys.readouterr().err
        (out / "model_3.json").unlink()
        assert main(["sankey", "--out", str(out)]) == 2
        assert "model_3.json" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, loads", [
        ({"n_init": 1, "init_method": "kmeans"}, True),
        ({"n_init": 5}, False),
        ({"init_method": "random-responsibility"}, False),
    ])
    def test_archive_with_retired_fit_settings(self, fixture_dir, tmp_path, capsys, entry, loads):
        """An older archive reads unless its fits used an initialization this version lacks."""
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        path = out / "model_3.json"
        doc = json.loads(path.read_text())
        doc["config"].update(entry)
        path.write_text(json.dumps(doc))
        assert main(["sankey", "--out", str(out)]) == (0 if loads else 2)
        assert loads or "model_3.json" in capsys.readouterr().err


class TestNameCommand:
    def test_requires_archive(self, fixture_dir, tmp_path):
        code = main([
            "name", "--out", str(tmp_path / "none"),
            "--texts", str(fixture_dir / "texts.csv"), "--fallback",
        ])
        assert code == 2

    def test_fallback_deterministic_bytes(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"])
        first = (out / "names.csv").read_bytes()
        main(["name", "--out", str(out), "--texts", str(fixture_dir / "texts.csv"), "--fallback"])
        assert (out / "names.csv").read_bytes() == first

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

    def test_missing_text_ids_reported(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        run_sweep_once(fixture_dir, out)
        (tmp_path / "short.csv").write_text("id,text\n0,only one\n")
        code = main([
            "name", "--out", str(out), "--texts", str(tmp_path / "short.csv"), "--fallback",
        ])
        assert code == 2


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clustersweep.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout and "sankey" in proc.stdout
