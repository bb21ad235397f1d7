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
from functools import cached_property
from pathlib import Path
from typing import ClassVar

from . import naming, pipeline, sankey, stability
from .data import EmbeddingMatrix, load_embeddings
from .errors import (
    BackendUnavailable,
    ClusterSweepError,
    InsufficientData,
    MissingArchive,
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

COMMANDS = ("sweep", "stability", "sankey", "name")

# Exit code per error type; the first match wins.
EXIT_CODES = (
    (BackendUnavailable, 4),
    (NumericFailure, 3),
    ((ValueError, InsufficientData), 1),
    ((OSError, ClusterSweepError), 2),
)

# Flag types by annotation; a config-file value needs the same type (an int passes as a float).
_SCALARS = {"int": int, "float": float, "str": str, "bool": bool}


def _setting(default, help: str, *commands: str, flag: str | None = None):
    """A RunConfig field with its flag's help and the subcommands offering it (all if none).

    The flag is ``--`` and the field name with ``-`` for ``_``, unless ``flag`` spells it.
    """
    kw = {"default_factory" if callable(default) else "default": default}
    return field(**kw, metadata={"help": help, "commands": commands or COMMANDS, "flag": flag})


def _scalar(annotation: str) -> type:
    """The flag type of a RunConfig annotation: its item type for a list, None dropped."""
    return _SCALARS[annotation.removesuffix(" | None").removeprefix("list[").removesuffix("]")]


@dataclass
class RunConfig:
    """Effective settings for one run, each with its flag; defaults mirror the reference protocol."""

    input: str | None = _setting(None, "embedding file")
    format: str = _setting("csv", "embedding file format: csv or bin")
    out: str = _setting("clustersweep-run", "run archive directory")
    k_min: int = _setting(1, "lowest cluster count")
    k_max: int = _setting(20, "highest cluster count")
    seed: int = _setting(0, "base RNG seed for fits")
    max_iter: int = _setting(2000, "EM iteration cap")
    tol: float = _setting(1e-3, "EM convergence threshold")
    reg_covar: float = _setting(1e-6, "variance floor")
    jobs: int = _setting(1, "worker threads for independent fits")
    fraction: float = _setting(0.8, "subsample fraction", "stability")
    repetitions: int = _setting(100, "subsample repetitions", "stability", flag="--reps")
    seed_lo: int = _setting(1, "first comparison seed", "stability")
    seed_hi: int = _setting(100, "last comparison seed", "stability")
    master_seed: int = _setting(0, "subsample draw seed", "stability")
    kinds: list[str] = _setting(lambda: list(KIND_TOKENS), "protocols to run", "stability")
    fit_reference: bool = _setting(False, "fit references if there is no archive", "stability")
    threshold: str = _setting("150", "minimum edge flow: int, fraction, or 'x%%'", "sankey")
    names: str | None = _setting(None, "name table CSV for node labels", "sankey")
    texts: str | None = _setting(None, "CSV of id,text rows aligned with the input", "name")
    backend_url: str | None = _setting(None, "naming service endpoint", "name")
    backend_model: str | None = _setting(None, "model identifier", "name")
    response_path: str = _setting("name", "dot path to the text field in responses", "name")
    token_env: str = _setting("CLUSTERSWEEP_API_TOKEN", "env var holding the auth token", "name")
    fallback: bool = _setting(False, "use the deterministic offline naming rule", "name")
    fallback_on_error: bool = _setting(False, "fall back per cluster if the backend fails", "name")
    stopwords: str | None = _setting(None, "stopword list file (one word per line)", "name")
    emoji_map: str | None = _setting(None, "JSON emoji-to-name map", "name")
    # Names set by the config file or a flag; not a field, so never archived.
    explicit: ClassVar[frozenset[str]] = frozenset()

    def validate(self) -> None:
        """Check what building ``base`` (GmmConfig) and ``specs`` (PerturbationSpec) does not."""
        if self.format not in ("csv", "bin"):
            raise ValueError(f"format must be csv or bin, got {self.format!r}")
        if self.k_max < self.k_min:
            raise ValueError(f"k-max ({self.k_max}) < k-min ({self.k_min})")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        unknown = [k for k in self.kinds if k not in KIND_TOKENS]
        if unknown:
            raise ValueError(f"unknown stability kinds: {unknown}")

    @cached_property
    def base(self) -> GmmConfig:
        """The fit settings at k_min."""
        return GmmConfig(k=self.k_min, **{name: getattr(self, name) for name in FIT_SETTINGS})

    @cached_property
    def specs(self) -> list[stability.PerturbationSpec]:
        """One protocol spec per entry of ``kinds``."""
        kw = dict(fraction=self.fraction, repetitions=self.repetitions,
                  seed_range=(self.seed_lo, self.seed_hi), master_seed=self.master_seed)
        return [stability.PerturbationSpec(KIND_TOKENS[token], **kw) for token in self.kinds]


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value has the type of a RunConfig annotation."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_fits(v, annotation[5:-1]) for v in value)
    if value is None:
        return annotation.endswith(" | None")
    want = _scalar(annotation)
    json_types = (int, float) if want is float else want
    return isinstance(value, bool) == (want is bool) and isinstance(value, json_types)


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
    types = {f.name: f.type for f in fields(RunConfig)}
    given = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid config JSON: {exc}")
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(types)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if not _fits(value, types[key]):
                raise ValueError(f"{path}: config key {key!r} must be {types[key]}, got {value!r}")
        given.update(doc)
    given.update({n: getattr(args, n) for n in types if getattr(args, n, None) is not None})
    config = RunConfig(**given)
    config.explicit = frozenset(given)
    config.validate()
    config.base, config.specs  # building them checks the fit and protocol settings
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
    """Fit every K and archive the partitions and models."""
    data = _load_input(config)
    result = pipeline.run_sweep(data, config.base, config.k_min, config.k_max, jobs=config.jobs)
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
    """Run the perturbation protocols against the archived or freshly fitted partitions."""
    out = Path(config.out)
    references, base = None, config.base
    try:
        archive = pipeline.read_archive(out)
    except MissingArchive as exc:
        if not config.fit_reference:
            raise MissingArchive(f"{exc} or pass --fit-reference") from None
    else:
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
    data = _load_input(config)
    out.mkdir(parents=True, exist_ok=True)
    k_range = (config.k_min, config.k_max)

    curves = []
    for token, spec in zip(config.kinds, config.specs):
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
    """Export the transition graph of the archive as JSON and HTML."""
    out = Path(config.out)
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
    """Name every occupied cluster of the archive."""
    out = Path(config.out)
    archive = pipeline.read_archive(out)
    if not config.texts:
        raise ValueError("naming needs --texts (CSV with id,text columns)")
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
    for command, func in zip(COMMANDS, (cmd_sweep, cmd_stability, cmd_sankey, cmd_name)):
        p = sub.add_parser(command, help=func.__doc__)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for f in fields(RunConfig):
            if command not in f.metadata["commands"]:
                continue
            kind = _scalar(f.type)
            kwargs = {"action": "store_true"} if kind is bool else {"type": kind}
            if f.type.startswith("list["):
                kwargs.update(nargs="+", choices=list(KIND_TOKENS))
            flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, default=None, help=f.metadata["help"], **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # a usage error, which argparse has printed; it would exit 2
    try:
        return args.func(resolve_config(args))
    except (ValueError, OSError, ClusterSweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
