"""Single command-line entry point.

Exit codes: 0 success, 1 fatal error, 2 partial success (some shards failed
but the rest completed). Diagnostics go to stderr, data to files or stdout,
so output streams stay byte-deterministic for a fixed input, config, and
seed. An --out file is written whole or not at all: a failed command leaves
an existing one as it was, and --out may name the --in file. Document
inputs may be gzipped (.gz). The UFW_LOG environment variable sets the
default log level; the --log-level flag overrides it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import classifier as clf
from . import filtering, pipeline, seedpool, verify
from .documents import (
    SHARD_READ_ERRORS,
    Document,
    decode_documents,
    encode_line,
    expand_shards,
    iter_documents,
)
from .ioutil import atomic_open, canonical_json
from .errors import WebsiftError
from .normalize import NormalizePolicy, normalize_text
from .tokenizers import TokenizerSpec, load_tokenizer

log = logging.getLogger("websift")

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract says 1
    def error(self, message: str):
        raise _UsageError(message)


def _tokenizer_from_flag(path: Optional[str]):
    spec = TokenizerSpec.from_file(path) if path else TokenizerSpec()
    return load_tokenizer(spec)


def _write_out(path: Optional[str], chunks: Iterable[str]) -> None:
    """Write chunks to path whole or not at all, or to stdout without a path."""
    if path:
        with atomic_open(path) as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _map_documents(args, to_records: Callable[[list[Document]], Iterable[dict]]) -> int:
    """Read documents from --in or stdin, clf.CHUNK_DOCS at a time, and write
    the records to_records(chunk) gives, one per line, to --out."""
    if args.infile:
        docs = iter_documents(args.infile)
    else:
        docs = decode_documents(sys.stdin.buffer, "<stdin>", strict=True)

    def lines() -> Iterator[str]:
        while chunk := list(islice(docs, clf.CHUNK_DOCS)):
            for record in to_records(chunk):
                yield encode_line(record) + "\n"

    _write_out(args.out, lines())
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _cmd_normalize(args) -> int:
    policy = NormalizePolicy.from_file(args.policy) if args.policy else NormalizePolicy()

    def normalized(doc: Document) -> dict:
        record = doc.to_json_obj()
        record["text"] = normalize_text(doc.text, policy)
        return record

    return _map_documents(args, lambda docs: map(normalized, docs))


def _cmd_tokenize(args) -> int:
    tokenizer = _tokenizer_from_flag(args.spec)
    tokens = tokenizer.token_count if args.stats else tokenizer.tokenize
    return _map_documents(
        args, lambda docs: ({"id": doc.id, "tokens": tokens(doc.text)} for doc in docs)
    )


def _cmd_classifier_train(args) -> int:
    config = clf.ClassifierConfig.from_file(args.config) if args.config else clf.ClassifierConfig()
    overrides = {
        name: getattr(args, name)
        for name in ("dim", "lr", "epochs", "min_count", "word_ngrams", "bucket", "seed")
        if getattr(args, name) is not None
    }
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    tokenizer = _tokenizer_from_flag(args.tokenizer)
    examples = clf.load_labeled_examples(args.data)
    model = clf.train(examples, config, tokenizer)
    summary = {
        "model": args.out,
        "sha256": clf.save_model(model, args.out),
        "examples": len(examples),
        "vocab": len(model.vocab),
        "epoch_losses": [round(x, 6) for x in model.epoch_losses],
    }
    print(canonical_json(summary))
    return EXIT_OK


def _cmd_classifier_predict(args) -> int:
    model = clf.load_model(args.model)
    tokenizer = _tokenizer_from_flag(args.tokenizer)

    def labeled(docs: list[Document]) -> Iterator[dict]:
        preds = clf.predict_many(model, [doc.text for doc in docs], tokenizer)
        for doc, pred in zip(docs, preds):
            positive = pred.dist[model.config.positive_label]
            yield {"id": doc.id, "label": pred.label, "prob": pred.prob, "score": positive}

    return _map_documents(args, labeled)


def _cmd_seedpool_init(args) -> int:
    seedpool.SeedPoolStore(args.pool).init()
    print(canonical_json({"pool": args.pool, "initialized": True}))
    return EXIT_OK


def _cmd_seedpool_add(args) -> int:
    store = seedpool.SeedPoolStore(args.pool).init()
    docs = list(iter_documents(args.docs))
    manifest = store.add_category(
        name=args.name,
        polarity=args.polarity,
        source=args.source,
        docs=docs,
        resample_factor=args.resample_factor,
        parent_version=args.version,
    )
    print(canonical_json({"pool": args.pool, "version": manifest.version, "documents": len(docs)}))
    return EXIT_OK


def _cmd_seedpool_mark(args) -> int:
    store = seedpool.SeedPoolStore(args.pool)
    manifest = store.mark_underrepresented(args.name, args.factor, args.version)
    print(canonical_json({"pool": args.pool, "version": manifest.version, "category": args.name, "factor": args.factor}))
    return EXIT_OK


def _cmd_seedpool_assemble(args) -> int:
    store = seedpool.SeedPoolStore(args.pool)
    examples = seedpool.assemble_training_set(
        store,
        target_size=args.size,
        balance=args.balance,
        seed=args.seed,
        version=args.version,
    )
    seedpool.write_training_set(args.out, examples, fmt=args.format)
    positives = sum(1 for ex in examples if ex.label == seedpool.POSITIVE)
    print(canonical_json({"out": args.out, "examples": len(examples), "positives": positives, "negatives": len(examples) - positives}))
    return EXIT_OK


def _cmd_seedpool_show(args) -> int:
    store = seedpool.SeedPoolStore(args.pool)
    manifest = store.load_manifest(args.version)
    print(canonical_json(manifest.to_json_obj()))
    return EXIT_OK


def _cmd_filter_score(args) -> int:
    model = clf.load_model(args.model)
    tokenizer = _tokenizer_from_flag(args.tokenizer)
    shards = expand_shards(args.shards)
    run = filtering.score_corpus(
        model,
        shards,
        threshold=args.threshold,
        tokenizer=tokenizer,
        out_dir=args.out,
        workers=args.workers,
        resume=args.resume,
    )
    summary = {
        "out_dir": run.out_dir,
        "corpus_fingerprint": run.corpus_fingerprint,
        "keep_manifest": run.keep_manifest_path,
        "completed_shards": len(run.completed_shards),  # includes reused shards
        "skipped_shards": len(run.skipped_shards),
        "failed_shards": [{"shard": s, "reason": r} for s, r in run.failed_shards],
        "zero_feature_docs": run.zero_feature_docs,  # reused shards not counted
        "stats": run.stats.to_json_obj(),
    }
    print(canonical_json(summary))
    return EXIT_PARTIAL if run.partial else EXIT_OK


def _cmd_filter_intersect(args) -> int:
    fingerprint, ids = filtering.intersect(args.manifests)
    header = filtering.MANIFEST_HEADER_PREFIX + fingerprint
    _write_out(args.out, (line + "\n" for line in [header, *ids]))
    if args.out:
        print(canonical_json({"out": args.out, "kept": len(ids)}))
    return EXIT_OK


def _cmd_filter_stats(args) -> int:
    tokenizer = _tokenizer_from_flag(args.tokenizer)
    shards = expand_shards(args.shards)
    stats = filtering.token_length_histogram(shards, tokenizer)
    _write_out(args.out, [canonical_json(stats.to_json_obj()) + "\n"])
    return EXIT_PARTIAL if stats.partial else EXIT_OK


def _cmd_verify_plan(args) -> int:
    if args.candidate_manifest:
        if not args.default_manifest:
            raise _UsageError("--default-manifest is required with --candidate-manifest")
        candidate = verify.TokenManifest.from_file(args.candidate_manifest)
        default = verify.TokenManifest.from_file(args.default_manifest)
        plan = verify.build_anneal_plan(
            candidate,
            default,
            n_epoch=args.n_epoch,
            global_batch_size=args.batch_size,
            sequence_length=args.seq_len,
            rounding_mode=args.rounding_mode,
            candidate_weight=args.weight,
            seed=args.seed,
            strata=args.strata,
        )
        payload = canonical_json(plan.to_json_obj())
    elif args.candidate_tokens is not None:
        step_plan = verify.plan_steps(
            candidate_tokens=args.candidate_tokens,
            n_epoch=args.n_epoch,
            global_batch_size=args.batch_size,
            sequence_length=args.seq_len,
            rounding_mode=args.rounding_mode,
            candidate_weight=args.weight,
        )
        payload = canonical_json(step_plan.to_json_obj())
    else:
        raise _UsageError("one of --candidate-manifest or --candidate-tokens is required")
    _write_out(args.out, [payload + "\n"])
    if args.out:
        print(canonical_json({"out": args.out}))
    return EXIT_OK


def _load_grouping(path: Optional[str]):
    return verify.MetricGrouping.from_file(path) if path else None


def _cmd_verify_report(args) -> int:
    baseline = verify.EvalScores.from_file(args.baseline)
    candidate = verify.EvalScores.from_file(args.candidate)
    report = verify.eval_report(
        baseline, candidate, grouping=_load_grouping(args.grouping), margin=args.margin
    )
    sys.stdout.write(verify.render_report(report, fmt=args.format))
    return EXIT_OK


def _print_status(state: pipeline.RunState) -> None:
    print(canonical_json(pipeline.status_view(state)))


def _cmd_pipeline_init(args) -> int:
    config = pipeline.PipelineConfig.from_file(args.config)
    _print_status(pipeline.init_run(args.run, config))
    return EXIT_OK


def _cmd_pipeline_advance(args) -> int:
    _print_status(pipeline.run_round(args.run))
    return EXIT_OK


def _cmd_pipeline_ingest_report(args) -> int:
    baseline = verify.EvalScores.from_file(args.baseline)
    candidate = verify.EvalScores.from_file(args.candidate)
    _print_status(pipeline.ingest_report(
        args.run,
        baseline,
        candidate,
        grouping=_load_grouping(args.grouping),
        margin=args.margin,
    ))
    return EXIT_OK


def _cmd_pipeline_status(args) -> int:
    print(canonical_json(pipeline.run_status(args.run)))
    return EXIT_OK


def _cmd_pipeline_resume(args) -> int:
    _print_status(pipeline.resume(args.run))  # verifies journal and artifact fingerprints
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="websift", description=__doc__)
    parser.add_argument("--log-level", default=None, help="debug|info|warning|error")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("normalize", help="normalize document text")
    p.add_argument("--policy", help="normalization policy JSON")
    p.add_argument("--in", dest="infile", help="input JSONL (default stdin)")
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("tokenize", help="tokenize documents")
    p.add_argument("--spec", help="tokenizer spec JSON")
    p.add_argument("--in", dest="infile", help="input JSONL (default stdin)")
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.add_argument("--stats", action="store_true", help="emit token counts instead of tokens")
    p.set_defaults(func=_cmd_tokenize)

    group = sub.add_parser("classifier", help="train or apply quality classifiers")
    gsub = group.add_subparsers(dest="subcommand", metavar="subcommand")
    p = gsub.add_parser("train", help="train from labeled examples")
    p.add_argument("--data", required=True, help="labeled examples (__label__ lines or JSONL)")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--config", help="classifier config JSON")
    p.add_argument("--tokenizer", help="tokenizer spec JSON")
    p.add_argument("--dim", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--word-ngrams", dest="word_ngrams", type=int)
    p.add_argument("--bucket", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_classifier_train)
    p = gsub.add_parser("predict", help="label documents")
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", help="tokenizer spec JSON")
    p.add_argument("--in", dest="infile", help="input JSONL (default stdin)")
    p.add_argument("--out", help="output JSONL (default stdout)")
    p.set_defaults(func=_cmd_classifier_predict)

    group = sub.add_parser("seedpool", help="manage versioned seed pools")
    gsub = group.add_subparsers(dest="subcommand", metavar="subcommand")
    p = gsub.add_parser("init", help="create an empty pool")
    p.add_argument("--pool", required=True)
    p.set_defaults(func=_cmd_seedpool_init)
    p = gsub.add_parser("add", help="add a category of documents")
    p.add_argument("--pool", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--polarity", required=True, choices=[seedpool.POSITIVE, seedpool.NEGATIVE])
    p.add_argument("--source", required=True, help="provenance note, e.g. a dataset name")
    p.add_argument("--docs", required=True, help="document JSONL")
    p.add_argument("--resample-factor", dest="resample_factor", type=int, default=1)
    p.add_argument("--version", type=int, help="parent pool version (default latest)")
    p.set_defaults(func=_cmd_seedpool_add)
    p = gsub.add_parser("mark", help="raise a category's resampling factor")
    p.add_argument("--pool", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--factor", required=True, type=int)
    p.add_argument("--version", type=int, help="parent pool version (default latest)")
    p.set_defaults(func=_cmd_seedpool_mark)
    p = gsub.add_parser("assemble", help="draw a balanced training set")
    p.add_argument("--pool", required=True)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--balance", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--version", type=int, help="pool version (default latest)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["jsonl", "labels"], default="jsonl")
    p.set_defaults(func=_cmd_seedpool_assemble)
    p = gsub.add_parser("show", help="print a pool manifest")
    p.add_argument("--pool", required=True)
    p.add_argument("--version", type=int, help="pool version (default latest)")
    p.set_defaults(func=_cmd_seedpool_show)

    group = sub.add_parser("filter", help="score and filter corpora")
    gsub = group.add_subparsers(dest="subcommand", metavar="subcommand")
    p = gsub.add_parser("score", help="score shards into kept/rejected")
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", help="tokenizer spec JSON")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--shards", required=True, nargs="+", help="shard paths or globs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--workers", type=int, default=None,
        help="scoring processes, forked; capped at pending shards and CPUs (default: CPUs)",
    )
    p.add_argument("--resume", action="store_true", help="reuse shards already scored")
    p.set_defaults(func=_cmd_filter_score)
    p = gsub.add_parser("intersect", help="intersect keep manifests")
    p.add_argument("manifests", nargs="+", help="two or more keep manifests")
    p.add_argument("--out", help="write result here instead of stdout")
    p.set_defaults(func=_cmd_filter_intersect)
    p = gsub.add_parser("stats", help="token length histogram")
    p.add_argument("--tokenizer", help="tokenizer spec JSON")
    p.add_argument("--shards", required=True, nargs="+", help="shard paths or globs")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_filter_stats)

    group = sub.add_parser("verify", help="plan annealing runs, compare eval scores")
    gsub = group.add_subparsers(dest="subcommand", metavar="subcommand")
    p = gsub.add_parser("plan", help="compute steps or a full mixture plan")
    p.add_argument("--candidate-manifest", help="candidate token manifest JSON")
    p.add_argument("--default-manifest", help="default-mixture token manifest JSON")
    p.add_argument("--candidate-tokens", type=int, help="token count for a steps-only plan")
    p.add_argument("--n-epoch", dest="n_epoch", type=int, default=3)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=verify.DEFAULT_GLOBAL_BATCH_SIZE)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=verify.DEFAULT_SEQUENCE_LENGTH)
    p.add_argument("--rounding-mode", choices=list(verify.ROUNDING_MODES), default="as_written_max")
    p.add_argument("--weight", type=float, default=verify.DEFAULT_CANDIDATE_WEIGHT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strata", type=int, default=100)
    p.add_argument("--out", help="write plan JSON here instead of stdout")
    p.set_defaults(func=_cmd_verify_plan)
    p = gsub.add_parser("report", help="compare two eval score files")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--grouping", help="metric grouping JSON (default English+Chinese)")
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--format", choices=["table", "markdown", "json"], default="table")
    p.set_defaults(func=_cmd_verify_report)

    group = sub.add_parser("pipeline", help="run the multi-round selection workflow")
    gsub = group.add_subparsers(dest="subcommand", metavar="subcommand")
    p = gsub.add_parser("init", help="initialize a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.set_defaults(func=_cmd_pipeline_init)
    p = gsub.add_parser("advance", help="advance until verification is needed")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_pipeline_advance)
    p = gsub.add_parser("ingest-report", help="record verification results")
    p.add_argument("--run", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--grouping", help="metric grouping JSON")
    p.add_argument("--margin", type=float, default=0.1)
    p.set_defaults(func=_cmd_pipeline_ingest_report)
    p = gsub.add_parser("status", help="print run status")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_pipeline_status)
    p = gsub.add_parser("resume", help="rebuild state, verifying artifacts")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_pipeline_resume)

    return parser


def _configure_logging(flag: Optional[str]) -> None:
    level_name = flag or os.environ.get("UFW_LOG") or "warning"
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise _UsageError(f"unknown log level {level_name!r}")
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _configure_logging(args.log_level)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            name = getattr(args, "command", None)
            print(f"error: missing or unknown subcommand under {name!r}" if name
                  else "error: a command is required", file=sys.stderr)
            return EXIT_FATAL
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise _UsageError("--workers must be >= 1")
        if getattr(args, "workers", "absent") is None:
            args.workers = os.cpu_count() or 1
        return args.func(args)
    except _UsageError as e:
        parser.print_usage(sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FATAL
    except (WebsiftError, ValueError) as e:
        # config dataclasses signal bad values with ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FATAL
    except SHARD_READ_ERRORS as e:
        # beyond OSError: a truncated or corrupt .gz input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FATAL


def entry() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
