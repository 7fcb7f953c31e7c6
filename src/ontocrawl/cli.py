"""Command-line interface.

Subcommands: crawl (run from a seed), resume (continue from a checkpoint),
export (checkpoint -> owl/dot/json), stats (checkpoint -> summary table),
validate-fixture (sanity-check a mock taxonomy file).

Exit codes: 0 success, 2 configuration error, 3 oracle failure, 4 crawl
aborted with a usable checkpoint on disk.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import export as export_mod
# save_checkpoint stays bound here for tools that wrap it by name.
from .crawler import (  # noqa: F401
    Checkpoint,
    Crawler,
    CrawlConfig,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from .errors import (
    CheckpointError,
    ConfigError,
    CrawlAbortedError,
    InvalidInputError,
    OntocrawlError,
    OracleError,
)
from .llm_backend import ChatCompletionOracle, CompletionParams, ResponseCache
from .oracle import GroundTruthTaxonomy, MockOracle, QueryLog

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_ABORTED = 4

OUTPUT_FILES = (
    "hierarchy.owl",
    "hierarchy.dot",
    "checkpoint.json",
    "stats.json",
    "stats.txt",
    "queries.jsonl",
    "rejected.jsonl",
)


def _parse_depth(text: str) -> int | None:
    if text.strip().lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"depth must be an integer or 'none', got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontocrawl",
        description="Build a concept hierarchy by crawling a knowledge oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crawl = sub.add_parser("crawl", help="run a crawl from a seed concept")
    crawl.add_argument("--seed", help="seed concept name")
    crawl.add_argument(
        "--depth",
        type=_parse_depth,
        default=argparse.SUPPRESS,
        help="exploration depth cutoff (integer or 'none' for unbounded)",
    )
    crawl.add_argument("--ft", type=int, help="first-token frequency threshold")
    crawl.add_argument("--samples", type=int, help="first-token sample count")
    crawl.add_argument("--model", help="completion model name")
    crawl.add_argument(
        "--oracle", help="oracle backend: 'llm' or 'mock:<fixture path>'"
    )
    crawl.add_argument(
        "--max-concepts", type=int, help="stop exploring beyond this many concepts"
    )
    crawl.add_argument("--config", help="JSON config file (flags take precedence)")
    crawl.add_argument("--out-dir", required=True, help="output directory")

    resume = sub.add_parser("resume", help="continue a crawl from its checkpoint")
    resume.add_argument("checkpoint", help="checkpoint.json produced by crawl")
    resume.add_argument(
        "--out-dir",
        help="output directory (defaults to the checkpoint's directory)",
    )

    exp = sub.add_parser("export", help="render a checkpoint as owl, dot or json")
    exp.add_argument("checkpoint")
    exp.add_argument(
        "--format", choices=("owl", "dot", "json"), default="owl"
    )
    exp.add_argument("-o", "--output", help="output file (default: stdout)")
    exp.add_argument("--base-iri", default=export_mod.DEFAULT_BASE_IRI)

    st = sub.add_parser("stats", help="print the run summary for a checkpoint")
    st.add_argument("checkpoint")

    vf = sub.add_parser("validate-fixture", help="check a mock taxonomy file")
    vf.add_argument("fixture")
    return parser


def _load_config(args: argparse.Namespace) -> CrawlConfig:
    file_data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError("config file must hold a JSON object")

    merged = dict(file_data)
    if args.seed is not None:
        merged["seed_name"] = args.seed
    if hasattr(args, "depth"):
        merged["exploration_depth"] = args.depth
    if args.ft is not None:
        merged["ft"] = args.ft
    if args.samples is not None:
        merged["n_samples"] = args.samples
    if args.max_concepts is not None:
        merged["max_concepts"] = args.max_concepts
    if args.oracle is not None:
        merged["oracle"] = args.oracle
    if args.model is not None and isinstance(merged.get("params", {}), dict):
        merged["params"] = {**merged.get("params", {}), "model": args.model}
    if "seed_name" not in merged:
        raise ConfigError("a seed is required (--seed or config file)")
    return CrawlConfig.from_dict(merged)


def _build_oracle(config: CrawlConfig, out_dir: Path):
    """The oracle ``config`` names; the crawler binds its ledger and query log."""
    if config.oracle.startswith("mock:"):
        fixture = config.oracle.split(":", 1)[1]
        return MockOracle(GroundTruthTaxonomy.load(fixture))
    return ChatCompletionOracle(
        params=CompletionParams(**config.params),
        cache=ResponseCache(out_dir / "cache.jsonl"),
    )


def _stats(run: Crawler | Checkpoint) -> export_mod.CrawlStats:
    """The run summary of a crawler or of the checkpoint it saved."""
    return export_mod.compute_stats(
        run.hierarchy, run.ledger, len(run.rejections), config=run.config
    )


def _write_outputs(crawler: Crawler, out_dir: Path) -> None:
    """Everything but the checkpoint, which the crawler keeps itself."""
    stats = _stats(crawler)
    (out_dir / "hierarchy.owl").write_text(
        export_mod.to_owl_rdfxml(crawler.hierarchy), encoding="utf-8"
    )
    (out_dir / "hierarchy.dot").write_text(
        export_mod.to_dot(crawler.hierarchy), encoding="utf-8"
    )
    (out_dir / "stats.json").write_text(
        json.dumps(export_mod.stats_to_json_dict(stats), indent=2) + "\n",
        encoding="utf-8",
    )
    (out_dir / "stats.txt").write_text(
        export_mod.render_stats_text(stats), encoding="utf-8"
    )


def _cmd_crawl(args: argparse.Namespace) -> int:
    return _run_crawl(_load_config(args), Path(args.out_dir))


def _cmd_resume(args: argparse.Namespace) -> int:
    data = parse_checkpoint(load_checkpoint(args.checkpoint))
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.checkpoint).parent
    return _run_crawl(data.config, out_dir, data)


def _run_crawl(config: CrawlConfig, out_dir: Path, data: Checkpoint | None = None) -> int:
    """Crawl into ``out_dir``: from the seed, or on from checkpoint ``data``.
    The oracle is built first, so a crawl that cannot start changes no file."""
    oracle = _build_oracle(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    query_log = QueryLog(out_dir / "queries.jsonl")
    try:
        files = {
            "query_log": query_log,
            "checkpoint_path": out_dir / "checkpoint.json",
            "rejection_path": out_dir / "rejected.jsonl",
        }
        if data is None:
            crawler = Crawler(config, oracle, **files)
        else:
            crawler = Crawler.from_checkpoint(data, oracle, **files)
        try:
            crawler.run()
        except CrawlAbortedError as exc:
            _write_outputs(crawler, out_dir)
            again = "" if data is None else " again"
            print(f"crawl aborted{again}, checkpoint saved: {exc}", file=sys.stderr)
            return EXIT_ABORTED
    finally:
        query_log.close()
    _write_outputs(crawler, out_dir)
    print(
        f"crawl finished: {len(crawler.hierarchy)} concepts, "
        f"{len(crawler.hierarchy.direct_edges())} subsumptions "
        f"-> {out_dir}"
    )
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    h = parse_checkpoint(load_checkpoint(args.checkpoint)).hierarchy
    if args.format == "owl":
        text = export_mod.to_owl_rdfxml(h, base_iri=args.base_iri)
    elif args.format == "dot":
        text = export_mod.to_dot(h)
    else:
        text = json.dumps(h.to_json_dict(), indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = _stats(parse_checkpoint(load_checkpoint(args.checkpoint)))
    sys.stdout.write(export_mod.render_stats_text(stats))
    return EXIT_OK


def _cmd_validate_fixture(args: argparse.Namespace) -> int:
    taxonomy = GroundTruthTaxonomy.load(args.fixture)
    print(
        f"fixture ok: root {taxonomy.root!r}, {len(taxonomy.edges)} edges, "
        f"{len(taxonomy.synonyms)} synonym pairs, "
        f"{len(taxonomy.descriptions)} descriptions"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "crawl": _cmd_crawl,
        "resume": _cmd_resume,
        "export": _cmd_export,
        "stats": _cmd_stats,
        "validate-fixture": _cmd_validate_fixture,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError, InvalidInputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except OntocrawlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
