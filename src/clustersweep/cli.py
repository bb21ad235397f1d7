"""Command-line entry point: sweep, stability, sankey, and name subcommands.

Stages communicate through a run archive directory, so the expensive sweep
and stability refits never rerun just to tweak a graph or a name table.
Configuration comes from a JSON file mirroring RunConfig plus flags that
override it; the effective configuration (defaults included) is written into
the archive, whose model files then fix the fit settings of the later stages,
and whose input.bin is the matrix that stability refits.
Exit codes: 1 config error, 2 IO error, 3 numeric failure,
4 naming backend unavailable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from . import naming, pipeline, sankey, stability
from .data import json_fits, load_embeddings, read_csv_rows, read_text, scalar_type, write_text
from .errors import BackendUnavailable, ClusterSweepError, NumericFailure, ParseError
from .gmm import GmmConfig
from .stability import PerturbationSpec

# RunConfig fields that set a fit; each is also a GmmConfig field of that name.
FIT_SETTINGS = tuple(f.name for f in fields(GmmConfig) if f.name != "k")

KIND_TOKENS = {token: kind for kind, token in stability.KINDS.items()}

COMMANDS = ("sweep", "stability", "sankey", "name")

# Exit code per error type; the first match wins.
EXIT_CODES = (
    (BackendUnavailable, 4),
    (NumericFailure, 3),
    (ValueError, 1),
    ((OSError, ClusterSweepError), 2),
)

def _setting(default, help: str, *commands: str, flag: str | None = None):
    """A RunConfig field with its flag's help and the subcommands offering it (all if none).

    The flag is ``--`` and the field name with ``-`` for ``_``, unless ``flag`` spells it.
    """
    kw = {"default_factory" if callable(default) else "default": default}
    return field(**kw, metadata={"help": help, "commands": commands or COMMANDS, "flag": flag})


@dataclass
class RunConfig:
    """Effective settings for one run, each with its flag; defaults mirror the reference protocol."""

    input: str | None = _setting(None, "embedding file", "sweep")
    format: str = _setting("csv", "embedding file format: csv or bin", "sweep")
    out: str = _setting("clustersweep-run", "run archive directory")
    k_min: int = _setting(1, "lowest cluster count")
    k_max: int = _setting(20, "highest cluster count")
    seed: int = _setting(GmmConfig.seed, "base RNG seed for fits", "sweep")
    max_iter: int = _setting(GmmConfig.max_iter, "EM iteration cap", "sweep")
    tol: float = _setting(GmmConfig.tol, "EM convergence threshold", "sweep")
    reg_covar: float = _setting(GmmConfig.reg_covar, "variance floor", "sweep")
    jobs: int = _setting(1, "worker threads for independent fits", "sweep", "stability")
    fraction: float = _setting(PerturbationSpec.fraction, "subsample fraction", "stability")
    repetitions: int = _setting(PerturbationSpec.repetitions, "subsample repetitions", "stability",
                                flag="--reps")
    seed_lo: int = _setting(PerturbationSpec.seed_range[0], "first comparison seed", "stability")
    seed_hi: int = _setting(PerturbationSpec.seed_range[1], "last comparison seed", "stability")
    kinds: list[str] = _setting(lambda: list(KIND_TOKENS), "protocols to run", "stability")
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
    # Names set by the config file or a flag. Not annotated, so never a field and
    # never archived: dataclasses resolves a string ClassVar annotation in
    # sys.modules["__main__"], which under runpy or cProfile is the runner.
    explicit = frozenset()

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
        repeated = sorted({k for k in self.kinds if self.kinds.count(k) > 1})
        if repeated:
            raise ValueError(f"stability kinds given more than once: {repeated}")

    @cached_property
    def base(self) -> GmmConfig:
        """The fit settings at k_min."""
        return GmmConfig(k=self.k_min, **{name: getattr(self, name) for name in FIT_SETTINGS})

    @cached_property
    def specs(self) -> list[PerturbationSpec]:
        """One protocol spec per entry of ``kinds``."""
        kw = dict(fraction=self.fraction, repetitions=self.repetitions,
                  seed_range=(self.seed_lo, self.seed_hi))
        return [PerturbationSpec(KIND_TOKENS[token], **kw) for token in self.kinds]


def parse_threshold(text: str, n: int) -> int:
    """A nonnegative count ("150"), or a percentage ("0.5%", <= 100) or fraction ("0.005") of n."""
    s = str(text).strip()
    try:
        if s.endswith("%"):
            percent = float(s[:-1])
            if not (0.0 <= percent <= 100.0):
                raise ValueError
            return round(percent / 100.0 * n)
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
            doc = json.loads(read_text(path))
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}")
        except ParseError as exc:  # not UTF-8 text: a config error, as bad JSON is
            raise ValueError(exc) from None
        except ValueError as exc:
            raise ValueError(f"{path}: invalid config JSON: {exc}")
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(types)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if not json_fits(value, types[key]):
                raise ValueError(f"{path}: config key {key!r} must be {types[key]}, got {value!r}")
        given.update(doc)
    given.update({n: getattr(args, n) for n in types if getattr(args, n, None) is not None})
    config = RunConfig(**given)
    config.explicit = frozenset(given)
    config.validate()
    config.base, config.specs  # building them checks the fit and protocol settings
    return config


def _archived_fit_settings(config: RunConfig, archive: pipeline.Archive) -> GmmConfig:
    """The sweep's fit settings; a config-file value that differs is an error."""
    for name in FIT_SETTINGS:
        archived = getattr(archive.base, name)
        if name in config.explicit and getattr(config, name) != archived:
            raise ValueError(f"{name} conflicts with the sweep archive, which has {archived!r}")
    return archive.base


def cmd_sweep(config: RunConfig) -> int:
    """Fit every K and archive the input, partitions and models."""
    if not config.input:
        raise ValueError("no input file given (--input or config file)")
    if not Path(config.input).exists():
        raise FileNotFoundError(f"input file not found: {config.input}")
    data = load_embeddings(config.input, config.format)
    result = pipeline.run_sweep(data, config.base, config.k_min, config.k_max, jobs=config.jobs)
    pipeline.write_archive(result, config.out)
    write_text(Path(config.out, "config.json"), json.dumps(asdict(config), indent=2) + "\n")

    print(f"{'K':>3} {'occupied':>8} {'iters':>6} {'conv':>5} "
          f"{'log_likelihood':>16} {'ami_prev':>9} {'stab_prev':>9}")
    for k, comp in zip(range(config.k_min, config.k_max + 1), (None, *result.consecutive)):
        model = result.models[k]
        occupied = result.partitions[k].occupied_clusters()
        ami_s = "-" if comp is None else f"{comp.ami.ami:.4f}"
        stab_s = "-" if comp is None else f"{comp.stability.average:.4f}"
        print(f"{k:>3} {occupied:>8} {model.n_iter:>6} {str(model.converged):>5} "
              f"{model.final_log_likelihood:>16.4f} {ami_s:>9} {stab_s:>9}")
    print(f"archive written to {config.out}", file=sys.stderr)
    return 0


def cmd_stability(config: RunConfig) -> int:
    """Run the perturbation protocols against the archived partitions."""
    if not config.kinds:
        raise ValueError("kinds is empty; stability needs at least one kind")
    out = Path(config.out)
    archive = pipeline.read_archive(out)
    if archive.k_min > config.k_min or archive.k_max < config.k_max:
        raise ValueError(
            f"archive covers K {archive.k_min}..{archive.k_max}, "
            f"requested {config.k_min}..{config.k_max}"
        )
    _archived_fit_settings(config, archive)  # the refits use archive.base
    sweep = replace(archive, k_min=config.k_min, k_max=config.k_max)
    for spec in config.specs:  # every kind's fraction, before the first refit
        stability._draw_size(spec, sweep)

    # The combined file holds this run's kinds only, and only once every kind has run.
    combined = out / "stability_combined.csv"
    combined.unlink(missing_ok=True)
    curves = []
    for token, spec in zip(config.kinds, config.specs):
        curve = stability.run_protocol(sweep, spec, jobs=config.jobs)
        stability.write_curve(curve, out)
        print(f"{token}: wrote {out / f'stability_{token}.csv'}", file=sys.stderr)
        curves.append(curve)
    stability.write_combined_csv(curves, combined)
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
        f"graph: {len(graph['nodes'])} nodes, {len(graph['edges'])} edges "
        f"(threshold {threshold}); wrote {out / 'graph.json'} and {out / 'graph.html'}",
        file=sys.stderr,
    )
    return 0


def _load_texts(path: str | Path) -> dict[str, str]:
    """The id -> text map of an 'id,text' CSV, in which no id repeats."""
    texts, rows = {}, {}
    header, *body = read_csv_rows(path) or [[]]
    if [h.strip().lower() for h in header[:2]] != ["id", "text"]:
        raise ParseError(f"{path}: texts file must be a CSV with an 'id,text' header")
    for r, row in enumerate(body):
        if len(row) != 2:
            raise ParseError(f"{path}: row {r} is not an id,text pair (fields: "
                             f"{len(row)}); a text that holds a comma needs quotes")
        if row[0] in texts:
            raise ParseError(f"{path}: id {row[0]!r} repeats in rows {rows[row[0]]} and {r}")
        texts[row[0]], rows[row[0]] = row[1], r
    return texts


def cmd_name(config: RunConfig) -> int:
    """Name every occupied cluster of the archive."""
    if not config.texts:
        raise ValueError("naming needs --texts (CSV with id,text columns)")
    if not (config.fallback or config.backend_url):
        raise ValueError("no --backend-url configured; pass --fallback for offline naming")
    out = Path(config.out)
    archive = pipeline.read_archive(out)
    sample_seed = _archived_fit_settings(config, archive).seed
    texts = _load_texts(config.texts)

    backend = None if config.fallback else naming.HttpBackend(
        url=config.backend_url,
        model=config.backend_model,
        response_path=config.response_path,
        token_env=config.token_env,
    )

    stopwords = (
        naming.load_stopwords(config.stopwords) if config.stopwords else naming.DEFAULT_STOPWORDS
    )
    emoji_map = naming.load_emoji_map(config.emoji_map) if config.emoji_map else None

    ids = archive.partitions[archive.k_min].ids  # every K covers the same ids
    missing = [i for i in ids if i not in texts]
    if missing:
        raise ParseError(
            f"{config.texts}: missing texts for {len(missing)} ids (first: {missing[0]!r})"
        )
    tokens = {i: naming.tokenize(texts[i], stopwords, emoji_map) for i in ids}

    assignments = []
    for k in range(archive.k_min, archive.k_max + 1):
        partition = archive.partitions[k]
        sizes = partition.cluster_sizes()
        profiles = [
            naming.profile_cluster(texts, tokens, partition, k, c, sample_seed)
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
        p = sub.add_parser(command, help=func.__doc__, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for f in fields(RunConfig):
            if command not in f.metadata["commands"]:
                continue
            kind = scalar_type(f.type)
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
