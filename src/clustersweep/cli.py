"""Command-line entry point: sweep, stability, sankey, and name subcommands.

Stages communicate through a run archive directory, so the expensive sweep
and stability refits never rerun just to tweak a graph or a name table.
Configuration comes from a JSON file mirroring RunConfig plus flags that
override it; the effective configuration (defaults included) is written into
the archive, whose model files then fix the fit settings of the later stages.
Exit codes: 1 config error, 2 IO error, 3 numeric failure,
4 naming backend unavailable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from . import naming, pipeline, sankey, stability
from .data import EmbeddingMatrix, load_embeddings
from .errors import (
    BackendUnavailable,
    ClusterSweepError,
    InsufficientData,
    NumericFailure,
    ParseError,
)
from .gmm import GmmConfig

# RunConfig fields that set a fit; each is also a GmmConfig field of that name.
FIT_SETTINGS = tuple(f.name for f in fields(GmmConfig) if f.name != "k")

KIND_TOKENS = {
    "dimensions": "dimension_subsample",
    "rows": "row_subsample",
    "seeds": "seed_variation",
}


@dataclass
class RunConfig:
    """Effective settings for one run; defaults mirror the reference protocol."""

    input: str | None = None
    format: str = "csv"
    out: str = "clustersweep-run"
    k_min: int = 1
    k_max: int = 20
    seed: int = 0
    max_iter: int = 2000
    tol: float = 1e-3
    reg_covar: float = 1e-6
    n_init: int = 1
    init_method: str = "kmeans"
    jobs: int = 1
    # stability protocols
    fraction: float = 0.8
    repetitions: int = 100
    seed_lo: int = 1
    seed_hi: int = 100
    master_seed: int = 0
    kinds: list[str] = field(default_factory=lambda: ["dimensions", "rows", "seeds"])
    fit_reference: bool = False
    # sankey
    threshold: str = "150"
    names: str | None = None
    # naming
    texts: str | None = None
    backend_url: str | None = None
    backend_model: str | None = None
    response_path: str = "name"
    token_env: str = "CLUSTERSWEEP_API_TOKEN"
    fallback: bool = False
    fallback_on_error: bool = False
    stopwords: str | None = None
    emoji_map: str | None = None
    # Names set by the config file or a flag; not a field, so never archived.
    explicit: ClassVar[frozenset[str]] = frozenset()

    def validate(self) -> None:
        if self.format not in ("csv", "bin"):
            raise ValueError(f"format must be csv or bin, got {self.format!r}")
        if self.k_min < 1:
            raise ValueError("k-min must be >= 1")
        if self.k_max < self.k_min:
            raise ValueError(f"k-max ({self.k_max}) < k-min ({self.k_min})")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must lie in (0, 1]")
        if self.repetitions < 1:
            raise ValueError("reps must be >= 1")
        if self.seed_hi < self.seed_lo:
            raise ValueError("empty seed range")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        unknown = [k for k in self.kinds if k not in KIND_TOKENS]
        if unknown:
            raise ValueError(f"unknown stability kinds: {unknown}")

    def gmm_config(self) -> GmmConfig:
        return GmmConfig(k=self.k_min, **{name: getattr(self, name) for name in FIT_SETTINGS})


def parse_threshold(text: str, n: int) -> int:
    """Absolute count ("150"), percentage ("0.5%"), or fraction of n ("0.005")."""
    s = str(text).strip()
    try:
        if s.endswith("%"):
            return round(float(s[:-1]) / 100.0 * n)
        if "." in s or "e" in s.lower():
            frac = float(s)
            if not (0.0 <= frac <= 1.0):
                raise ValueError
            return round(frac * n)
        value = int(s)
        if value < 0:
            raise ValueError
        return value
    except ValueError:
        raise ValueError(f"bad threshold {text!r}: expected an int, a fraction, or 'x%'")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then explicit flags."""
    known = {f.name for f in fields(RunConfig)}
    given = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid config JSON: {exc}")
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        given.update(doc)
    flags = {name: getattr(args, name, None) for name in known}
    given.update({name: value for name, value in flags.items() if value is not None})
    config = RunConfig(**given)
    config.explicit = frozenset(given)
    config.validate()
    return config


def _load_input(config: RunConfig) -> EmbeddingMatrix:
    if not config.input:
        raise ValueError("no input file given (--input or config file)")
    path = Path(config.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return load_embeddings(path, config.format)


def _archived_fit_settings(config: RunConfig, archive: pipeline.SweepResult) -> GmmConfig:
    """The sweep's fit settings; an explicitly set value that differs is an error."""
    for name in FIT_SETTINGS:
        archived = getattr(archive.base, name)
        if name in config.explicit and getattr(config, name) != archived:
            raise ValueError(f"{name} conflicts with the sweep archive, which has {archived!r}")
    return archive.base


def cmd_sweep(config: RunConfig) -> int:
    data = _load_input(config)
    if data.n < config.k_max:
        raise ValueError(f"input has {data.n} rows; k-max {config.k_max} needs at least that many")
    base = config.gmm_config()
    result = pipeline.run_sweep(data, base, config.k_min, config.k_max, jobs=config.jobs)
    pipeline.write_archive(result, config.out, run_config=asdict(config))

    print(f"{'K':>3} {'occupied':>8} {'iters':>6} {'conv':>5} "
          f"{'log_likelihood':>16} {'ami_prev':>9} {'stab_prev':>9}")
    for k in range(config.k_min, config.k_max + 1):
        model = result.models[k]
        occupied = result.partitions[k].occupied_clusters()
        if k == config.k_min:
            ami_s = stab_s = "-"
        else:
            comp = result.comparison_at(k)
            ami_s = f"{comp.ami.ami:.4f}"
            stab_s = f"{comp.stability.average:.4f}"
        print(f"{k:>3} {occupied:>8} {model.n_iter:>6} {str(model.converged):>5} "
              f"{model.final_log_likelihood:>16.4f} {ami_s:>9} {stab_s:>9}")
    print(f"archive written to {config.out}", file=sys.stderr)
    return 0


def cmd_stability(config: RunConfig) -> int:
    out = Path(config.out)
    references = None
    if (out / f"partition_{config.k_min}.csv").exists():
        archive = pipeline.read_archive(out)
        if archive.k_min > config.k_min or archive.k_max < config.k_max:
            raise ValueError(
                f"archive covers K {archive.k_min}..{archive.k_max}, "
                f"requested {config.k_min}..{config.k_max}"
            )
        references = {k: archive.partitions[k] for k in range(config.k_min, config.k_max + 1)}
        base = _archived_fit_settings(config, archive)
        if config.input is None:
            archived = json.loads((out / "config.json").read_text(encoding="utf-8"))
            config.input = archived.get("input")
            config.format = archived.get("format", config.format)
    elif config.fit_reference:
        base = config.gmm_config()
    else:
        raise FileNotFoundError(
            f"no sweep archive in {out}; run the sweep first or pass --fit-reference"
        )
    data = _load_input(config)
    out.mkdir(parents=True, exist_ok=True)
    k_range = (config.k_min, config.k_max)

    curves = []
    for token in config.kinds:
        spec = stability.PerturbationSpec(
            kind=KIND_TOKENS[token],
            fraction=config.fraction,
            repetitions=config.repetitions,
            seed_range=(config.seed_lo, config.seed_hi),
            master_seed=config.master_seed,
        )
        curve = stability.run_protocol(
            data, base, k_range, spec, references=references, jobs=config.jobs
        )
        stability.write_curve_csv(curve, out / f"stability_{token}.csv")
        stability.write_curve_json(curve, out / f"stability_{token}.json")
        stability.write_curve_reps_csv(curve, out / f"stability_{token}_reps.csv")
        print(f"{token}: wrote {out / f'stability_{token}.csv'}", file=sys.stderr)
        curves.append(curve)
    if len(curves) > 1:
        stability.write_combined_csv(curves, out / "stability_combined.csv")
    return 0


def cmd_sankey(config: RunConfig) -> int:
    out = Path(config.out)
    if not (out / f"partition_{config.k_min}.csv").exists():
        raise FileNotFoundError(f"no sweep archive in {out}; run the sweep first")
    archive = pipeline.read_archive(out)
    n = archive.partitions[archive.k_min].n_items
    threshold = parse_threshold(config.threshold, n)
    names = naming.load_name_table(config.names) if config.names else None
    graph = sankey.build_graph(archive, names=names, threshold=threshold)
    sankey.export_json(graph, out / "graph.json")
    sankey.export_html(graph, out / "graph.html")
    print(
        f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges "
        f"(threshold {threshold}); wrote {out / 'graph.json'} and {out / 'graph.html'}",
        file=sys.stderr,
    )
    return 0


def _load_texts(path: str | Path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id", "text"]:
            raise ParseError(f"{path}: texts file must be a CSV with an 'id,text' header")
        return {row[0]: row[1] for row in reader if len(row) >= 2}


def cmd_name(config: RunConfig) -> int:
    out = Path(config.out)
    if not (out / f"partition_{config.k_min}.csv").exists():
        raise FileNotFoundError(f"no sweep archive in {out}; run the sweep first")
    if not config.texts:
        raise ValueError("naming needs --texts (CSV with id,text columns)")
    archive = pipeline.read_archive(out)
    sample_seed = _archived_fit_settings(config, archive).seed
    texts_by_id = _load_texts(config.texts)

    if config.fallback or not config.backend_url:
        if not config.fallback:
            raise ValueError("no --backend-url configured; pass --fallback for offline naming")
        backend = naming.FallbackBackend()
    else:
        backend = naming.HttpBackend(
            url=config.backend_url,
            model=config.backend_model,
            response_path=config.response_path,
            token_env=config.token_env,
        )

    stopwords = (
        naming.load_stopwords(config.stopwords) if config.stopwords else naming.DEFAULT_STOPWORDS
    )
    emoji_map = naming.load_emoji_map(config.emoji_map) if config.emoji_map else None

    assignments = []
    for k in range(archive.k_min, archive.k_max + 1):
        partition = archive.partitions[k]
        missing = [i for i in partition.ids if i not in texts_by_id]
        if missing:
            raise ParseError(
                f"{config.texts}: missing texts for {len(missing)} ids (first: {missing[0]!r})"
            )
        texts = [texts_by_id[i] for i in partition.ids]
        sizes = partition.cluster_sizes()
        profiles = [
            naming.profile_cluster(
                texts, partition, k, c, sample_seed,
                stopwords=stopwords, emoji_map=emoji_map,
            )
            for c in range(k) if sizes[c] > 0
        ]
        assignments.extend(
            naming.name_clusters(profiles, backend, fallback_on_error=config.fallback_on_error)
        )
    naming.write_name_table(assignments, out / "names.csv")
    print(f"wrote {out / 'names.csv'} ({len(assignments)} clusters)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersweep",
        description="Fit GMMs across a sweep of cluster counts, measure stability, "
        "and export the cluster transition graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--input", help="embedding file")
        p.add_argument("--format", choices=["csv", "bin"], help="embedding file format")
        p.add_argument("--out", help="run archive directory")
        p.add_argument("--k-min", dest="k_min", type=int, help="lowest cluster count")
        p.add_argument("--k-max", dest="k_max", type=int, help="highest cluster count")
        p.add_argument("--seed", type=int, help="base RNG seed for fits")
        p.add_argument("--max-iter", dest="max_iter", type=int, help="EM iteration cap")
        p.add_argument("--tol", type=float, help="EM convergence threshold")
        p.add_argument("--reg-covar", dest="reg_covar", type=float, help="variance floor")
        p.add_argument("--n-init", dest="n_init", type=int, help="initializations per fit")
        p.add_argument("--jobs", type=int, help="worker threads for independent fits")

    p_sweep = sub.add_parser("sweep", help="fit every K and archive partitions/models")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_stab = sub.add_parser("stability", help="run the perturbation protocols")
    add_common(p_stab)
    p_stab.add_argument(
        "--kinds", nargs="+", choices=sorted(KIND_TOKENS), help="protocols to run"
    )
    p_stab.add_argument("--fraction", type=float, help="subsample fraction")
    p_stab.add_argument("--reps", dest="repetitions", type=int, help="subsample repetitions")
    p_stab.add_argument("--seed-lo", dest="seed_lo", type=int, help="first comparison seed")
    p_stab.add_argument("--seed-hi", dest="seed_hi", type=int, help="last comparison seed")
    p_stab.add_argument("--master-seed", dest="master_seed", type=int, help="subsample draw seed")
    p_stab.add_argument(
        "--fit-reference", dest="fit_reference", action="store_true", default=None,
        help="fit reference partitions instead of requiring an archive",
    )
    p_stab.set_defaults(func=cmd_stability)

    p_sankey = sub.add_parser("sankey", help="export the transition graph (JSON + HTML)")
    add_common(p_sankey)
    p_sankey.add_argument("--threshold", help="minimum edge flow: int, fraction, or 'x%%'")
    p_sankey.add_argument("--names", help="name table CSV for node labels")
    p_sankey.set_defaults(func=cmd_sankey)

    p_name = sub.add_parser("name", help="generate cluster names for an archive")
    add_common(p_name)
    p_name.add_argument("--texts", help="CSV of id,text rows aligned with the input")
    p_name.add_argument("--backend-url", dest="backend_url", help="naming service endpoint")
    p_name.add_argument("--backend-model", dest="backend_model", help="model identifier")
    p_name.add_argument(
        "--response-path", dest="response_path", help="dot path to the text field in responses"
    )
    p_name.add_argument("--token-env", dest="token_env", help="env var holding the auth token")
    p_name.add_argument(
        "--fallback", action="store_true", default=None,
        help="use the deterministic offline naming rule",
    )
    p_name.add_argument(
        "--fallback-on-error", dest="fallback_on_error", action="store_true", default=None,
        help="fall back per cluster when the backend is unavailable",
    )
    p_name.add_argument("--stopwords", help="stopword list file (one word per line)")
    p_name.add_argument("--emoji-map", dest="emoji_map", help="JSON emoji-to-name map")
    p_name.set_defaults(func=cmd_name)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return args.func(config)
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ClusterSweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
