"""Command-line interface.

Subcommands::

    repro build-corpus --records 2000 --out corpus_dir
    repro train --epochs 8 --save model.npz
    repro advise file.c            # on-the-fly advisor (§2.1)
    repro advise --batch *.c       # batched advisor over many snippets
    repro serve < requests.jsonl   # JSON-lines serving loop on stdin
    repro serve --http 8080        # multi-model advisor over HTTP
    repro compar file.c            # run the S2S combiner on a snippet
    repro reproduce table8         # regenerate a paper table/figure

Serving (``serve`` and ``advise``) goes through the :mod:`repro.serve`
stack: snippets are tokenized once, packed into length-sorted micro-batches
(``--batch-size``, default 128) so padding work is bounded by each bucket's
longest row, and predictions are memoized in a bounded LRU keyed by the
token-id digest (``--cache-size``, default 4096; 0 disables).

``serve`` has two front-ends.  The default reads one JSON object per stdin
line — ``{"id": ..., "code": "..."}``, or a bare path to a C file — and
writes one JSON directive verdict per line, served by a directive-only
:class:`repro.serve.MultiModelEngine` through ``advise_v1``; ``--stats``
dumps the engine's ``stats()`` to stderr at EOF.  ``--http PORT`` instead
loads the directive
*and* ``private``/``reduction`` clause models behind one
:class:`repro.serve.MultiModelEngine` and serves ``POST /advise``,
``POST /advise/batch``, ``POST /reload``, ``GET /healthz``, and
``GET /stats`` — each also mounted under ``/v1/`` with the v1 result
schema (schemas in ``docs/serving.md``).  In either mode
``--shards N`` partitions traffic across N worker processes with
digest-hash routing (:class:`repro.serve.ShardedEngine`; a sharded
advisor loaded from ``--watch`` maps one shared read-only weight copy
fleet-wide unless ``--no-shared-weights``), and
``--min-shards``/``--max-shards`` turn on queue-depth autoscaling between
those bounds.  ``--http`` additionally supports ``--watch DIR`` (start
from — and hot-reload on changes to — an advisor checkpoint directory
written by ``ModelRegistry.save``), ``--gate-margin M`` (clause heads
only see snippets whose directive probability clears ``0.5 - M``), and
``--canary DIR`` / ``--canary-fraction F`` (serve a second checkpoint to
a deterministic digest slice of traffic next to the primary; finish the
rollout over ``POST /canary/promote`` / ``/canary/rollback``).
Fault tolerance: sharded serving carries per-request deadlines
(``--request-timeout SECONDS``, default 30, ``0`` disables — timed-out
or fault-hit requests are retried then answered with degraded verdicts),
and the HTTP front-end enforces admission control
(``--max-body-bytes N`` for the 413 body cap; batch caps, load shedding,
and the circuit breaker use :class:`repro.serve.AdmissionConfig`
defaults).  The operator's guide is ``docs/operations.md``.

``advise`` fans each positive snippet out to the clause models through the
same multi-model engine and prints the suggested clauses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.utils.tables import format_table

__all__ = ["main"]


def _cmd_build_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusConfig, build_corpus, directive_stats, save_records

    corpus = build_corpus(CorpusConfig(n_records=args.records, seed=args.seed))
    stats = directive_stats(corpus)
    print(format_table(["statistic", "amount"], list(stats.items()),
                       title="Open-OMP corpus (Table 3 statistics)"))
    if args.out:
        save_records(corpus.records, Path(args.out))
        print(f"wrote {len(corpus)} records to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.pipeline import get_context
    from repro.eval import binary_metrics

    ctx = get_context()
    if getattr(args, "workers", 0):
        # shared-memory data-parallel fits (repro.train.ddp); training is
        # bit-identical at any worker count, so this is purely a perf knob
        ctx.train_workers = args.workers
    model = ctx.pragformer
    enc = ctx.encoded()
    metrics = binary_metrics(model.predict(enc.test), enc.test.labels)
    print(format_table(["metric", "value"], list(metrics.as_dict().items()),
                       title="PragFormer on the directive test split"))
    if args.save:
        from repro.models import save_pragformer

        save_pragformer(model, enc.vocab, args.save)
        print(f"saved model + vocabulary to {args.save}")
    return 0


def _engine_config(args: argparse.Namespace):
    from repro.serve import EngineConfig

    kwargs = {}
    max_snippet = getattr(args, "max_snippet_bytes", None)
    if max_snippet is not None:
        kwargs["max_snippet_bytes"] = int(max_snippet)
    return EngineConfig(max_batch_size=getattr(args, "batch_size", 128),
                        cache_capacity=getattr(args, "cache_size", 4096),
                        gate_margin=getattr(args, "gate_margin", None),
                        **kwargs)


def _autoscale_config(args: argparse.Namespace):
    """:class:`AutoscaleConfig` from ``--min-shards``/``--max-shards``, or
    ``None`` when neither flag was given (fixed shard count)."""
    from repro.serve import AutoscaleConfig

    min_shards = getattr(args, "min_shards", None)
    max_shards = getattr(args, "max_shards", None)
    if min_shards is None and max_shards is None:
        return None
    min_shards = min_shards or 1
    return AutoscaleConfig(
        min_shards=min_shards,
        max_shards=max_shards or max(min_shards, getattr(args, "shards", 1)))


def _supervisor_config(args: argparse.Namespace):
    """:class:`SupervisorConfig` from ``--request-timeout``, or ``None``
    (engine defaults) when the flag was not given.  ``0`` disables
    per-request deadlines entirely — calls wait as long as they must."""
    from repro.serve import SupervisorConfig

    timeout = getattr(args, "request_timeout", None)
    if timeout is None:
        return None
    return SupervisorConfig(
        request_timeout_s=None if timeout == 0 else float(timeout))


def _admission_config(args: argparse.Namespace):
    """:class:`AdmissionConfig` from ``--max-body-bytes``, or ``None``
    (server defaults) when the flag was not given."""
    from repro.serve import AdmissionConfig

    max_body = getattr(args, "max_body_bytes", None)
    if max_body is None:
        return None
    return AdmissionConfig(max_body_bytes=int(max_body))


def _directive_registry(ctx):
    """Registry holding only the directive head — the stdin serving loop
    and ``advise``'s first pass never pay for the clause models."""
    from repro.serve import ModelRegistry

    return ModelRegistry.from_context(ctx, clauses=())


def _build_multi_engine(registry, config):
    """Worker-side builder for sharded serving (module-level so it stays
    picklable under the ``spawn`` start method; under ``fork`` the trained
    weights are shared copy-on-write)."""
    from repro.serve import MultiModelEngine

    return MultiModelEngine(registry, config=config)


def _make_full_advisor(args: argparse.Namespace):
    """Multi-model advisor (directive + clause heads), optionally sharded.

    With ``--shards N > 1`` (or autoscaling bounds) each worker process
    builds its own :class:`MultiModelEngine` from the registry.  With
    ``--watch DIR`` pointing at an existing advisor checkpoint, the
    registry is loaded from it instead of training via the experiment
    context — the deployment path: train elsewhere, ``ModelRegistry.save``,
    serve from the checkpoint and hot-reload on updates.

    A sharded advisor loaded from a checkpoint maps the weights **once**
    into a shared segment (``--no-shared-weights`` opts out): the parent
    binds the registry onto it before the workers spawn, so the whole
    fleet serves from one physical copy, and later ``/reload`` /
    ``/canary`` rollouts publish their checkpoints the same way."""
    import functools

    from repro.serve import ModelRegistry, ShardedEngine

    config = _engine_config(args)
    watch = getattr(args, "watch", None)
    autoscale = _autoscale_config(args)
    shards = getattr(args, "shards", 1)
    sharded = shards > 1 or autoscale is not None
    share = bool(getattr(args, "share_weights", True))
    registry = None
    shared = None
    if watch:
        try:
            if share and sharded:
                registry, shared = ModelRegistry.from_checkpoint(
                    watch, share=True)
            else:
                registry = ModelRegistry.from_checkpoint(watch)
        except FileNotFoundError:
            registry = None  # no checkpoint yet: train, serve, watch for one
    if registry is None:
        from repro.pipeline import get_context

        registry = ModelRegistry.from_context(get_context())
    factory = functools.partial(_build_multi_engine, registry, config)
    if sharded:
        try:
            return ShardedEngine(factory, n_shards=shards,
                                 autoscale=autoscale,
                                 supervisor=_supervisor_config(args),
                                 share_weights=share,
                                 shared_weights=shared)
        except BaseException:
            # a fleet that failed to come up must not leak its segment
            if shared is not None:
                import contextlib

                with contextlib.suppress(Exception):
                    shared.close()
                with contextlib.suppress(Exception):
                    shared.unlink()
            raise
    return factory()


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.pipeline import get_context
    from repro.serve import ModelRegistry, MultiModelEngine

    paths = [Path(f) for f in args.files]
    sources = [p.read_text() for p in paths]
    # directive verdicts first: the clause models only need training when a
    # snippet is directive-positive, so the common all-negative invocation
    # never pays for them
    ctx = get_context()
    config = _engine_config(args)
    with MultiModelEngine(_directive_registry(ctx), config=config) as engine:
        advice = engine.advise_v1(sources)
    positive = [i for i, a in enumerate(advice) if a.verdict]
    full_rows = {}
    if positive:
        registry = ModelRegistry.from_context(ctx)
        with MultiModelEngine(registry, config=config) as advisor:
            full = advisor.advise_v1([sources[i] for i in positive])
        full_rows = dict(zip(positive, full))
    prefix_paths = args.batch or len(paths) > 1
    for i, (path, a) in enumerate(zip(paths, advice)):
        verdict = "needs an OpenMP directive" if a.verdict else "no directive needed"
        lead = f"{path}: " if prefix_paths else "PragFormer: "
        print(f"{lead}{verdict} (p = {a.probability:.3f})")
        full = full_rows.get(i)
        if full is not None:
            for clause in full.recommended_clauses():
                print(f"  suggest a {clause} clause "
                      f"(p = {full.clauses[clause].probability:.3f})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None:
        from repro.serve import checkpoint_mtime, serve_forever

        # baseline captured BEFORE the (slow) advisor load: a checkpoint
        # written while models load still differs from it, so the watcher's
        # first poll picks the rollout up instead of absorbing it
        baseline = checkpoint_mtime(args.watch) if args.watch else None
        advisor = _make_full_advisor(args)
        if args.canary:
            version = advisor.start_canary(args.canary, args.canary_fraction)
            print(f"canary {version} serving "
                  f"{args.canary_fraction:.0%} of traffic "
                  f"(POST /canary/promote or /canary/rollback to finish)")
        serve_forever(advisor, args.host, args.http,
                      watch_dir=args.watch,
                      watch_interval=args.watch_interval,
                      watch_baseline=baseline,
                      admission=_admission_config(args))
        return 0
    if args.watch:
        print("--watch requires --http (the stdin loop ends at EOF, "
              "nothing long-lived to reload)", file=sys.stderr)
        return 2
    if args.canary:
        print("--canary requires --http (canary rollouts split the "
              "multi-model advisor's traffic; the stdin loop serves the "
              "directive head only)", file=sys.stderr)
        return 2
    if args.gate_margin is not None:
        print("--gate-margin requires --http (the stdin loop serves the "
              "directive head only; there are no clause heads to gate)",
              file=sys.stderr)
        return 2
    import functools

    from repro.pipeline import get_context
    from repro.serve import ShardedEngine

    factory = functools.partial(_build_multi_engine,
                                _directive_registry(get_context()),
                                _engine_config(args))
    autoscale = _autoscale_config(args)
    if args.shards > 1 or autoscale is not None:
        engine = ShardedEngine(factory, n_shards=args.shards,
                               autoscale=autoscale,
                               supervisor=_supervisor_config(args))
    else:
        engine = factory()

    def requests():
        # one bad request must not kill the serving loop: parse errors are
        # reported as JSON error lines and the stream continues
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            req = None
            try:
                if line.startswith("{"):
                    req = json.loads(line)
                    if not isinstance(req.get("code"), str):
                        raise ValueError("request needs a string 'code' field")
                else:
                    req = {"id": line, "code": Path(line).read_text()}
            except (OSError, ValueError) as exc:
                rid = req.get("id") if isinstance(req, dict) else line[:80]
                print(json.dumps({"id": rid, "error": str(exc)}))
                continue
            yield req

    batch = []

    def flush():
        if not batch:
            return
        for req, advice in zip(batch, engine.advise_v1([r["code"] for r in batch])):
            print(json.dumps({
                "id": req.get("id"),
                "needs_directive": advice.verdict,
                "p_directive": round(advice.probability, 6),
            }))
        sys.stdout.flush()
        batch.clear()

    for req in requests():
        batch.append(req)
        if len(batch) >= args.batch_size:
            flush()
    flush()
    if args.stats:
        print(json.dumps(engine.stats()), file=sys.stderr)
    engine.close()
    return 0


def _cmd_compar(args: argparse.Namespace) -> int:
    from repro.s2s import ComPar

    source = Path(args.file).read_text()
    result = ComPar().run(source)
    if result.parse_failed:
        print("ComPar: parse failure in every sub-compiler")
        for name, res in result.per_compiler.items():
            print(f"  {name}: {res.failure}")
        return 1
    if result.inserted:
        print(f"ComPar inserts: {result.directive}")
    else:
        print("ComPar: no directive (loop judged not parallelizable)")
        for name, res in result.per_compiler.items():
            if res.analysis is not None and res.analysis.reasons:
                print(f"  {name}: {'; '.join(res.analysis.reasons)}")
    return 0


_EXPERIMENTS = {
    "table3": "exp_table3", "table4": "exp_table4", "fig3": "exp_fig3",
    "table5": "exp_table5", "table7": "exp_table7", "fig456": "exp_fig456",
    "table8": "exp_table8", "fig7": "exp_fig7", "table9": "exp_table9",
    "table10": "exp_table10", "table11": "exp_table11",
    "table12": "exp_table12_fig8",
}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.pipeline import experiments

    fn = getattr(experiments, _EXPERIMENTS[args.experiment])
    result = fn()
    print(json.dumps(result, indent=2, default=str))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PragFormer reproduction: corpus, models, S2S compilers, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("build-corpus", help="generate the Open-OMP corpus")
    p_corpus.add_argument("--records", type=int, default=2000)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--out", type=str, default="")
    p_corpus.set_defaults(fn=_cmd_build_corpus)

    p_train = sub.add_parser("train", help="train PragFormer on the directive task")
    p_train.add_argument("--save", type=str, default="")
    p_train.add_argument("--workers", type=int, default=0,
                         help="data-parallel training workers (0 = legacy "
                              "single-process loop; N-worker runs are "
                              "bit-identical to 1-worker)")
    p_train.set_defaults(fn=_cmd_train)

    p_advise = sub.add_parser("advise", help="advise OpenMP use for C snippet file(s)")
    p_advise.add_argument("files", nargs="+")
    p_advise.add_argument("--batch", action="store_true",
                          help="batched output (implied by multiple files)")
    p_advise.add_argument("--batch-size", type=int, default=128)
    p_advise.add_argument("--cache-size", type=int, default=4096)
    p_advise.set_defaults(fn=_cmd_advise)

    p_serve = sub.add_parser(
        "serve", help="advisor service: JSON-lines on stdin, or --http PORT")
    p_serve.add_argument("--batch-size", type=int, default=128,
                         help="micro-batch size for the inference engine")
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="LRU prediction-cache capacity (0 disables)")
    p_serve.add_argument("--stats", action="store_true",
                         help="dump engine counters to stderr at EOF (stdin mode)")
    p_serve.add_argument("--http", type=int, default=None, metavar="PORT",
                         help="serve the multi-model advisor over HTTP on PORT "
                              "(directive + clause heads; /advise, /advise/batch, "
                              "/reload, /healthz, /stats)")
    p_serve.add_argument("--host", type=str, default="127.0.0.1",
                         help="bind address for --http (default 127.0.0.1)")
    p_serve.add_argument("--shards", type=int, default=1, metavar="N",
                         help="partition traffic across N worker processes "
                              "(digest-hash routing; 1 = in-process)")
    p_serve.add_argument("--min-shards", type=int, default=None, metavar="N",
                         help="lower bound for queue-depth shard autoscaling "
                              "(giving --min-shards or --max-shards enables it)")
    p_serve.add_argument("--max-shards", type=int, default=None, metavar="N",
                         help="upper bound for queue-depth shard autoscaling")
    p_serve.add_argument("--watch", type=str, default=None, metavar="DIR",
                         help="with --http: serve the advisor checkpoint in DIR "
                              "and hot-reload whenever a new checkpoint lands "
                              "(mtime polling; also the default for POST /reload)")
    p_serve.add_argument("--watch-interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="poll interval for --watch (default 2.0)")
    p_serve.add_argument("--gate-margin", type=float, default=None, metavar="M",
                         help="gate clause heads on the directive verdict: only "
                              "snippets with P(directive) > 0.5 - M fan out "
                              "(default: gating off)")
    p_serve.add_argument("--canary", type=str, default=None, metavar="DIR",
                         help="with --http: start serving the advisor "
                              "checkpoint in DIR as a canary next to the "
                              "primary (finish with POST /canary/promote or "
                              "/canary/rollback)")
    p_serve.add_argument("--canary-fraction", type=float, default=0.1,
                         metavar="F",
                         help="fraction of the digest space the canary "
                              "serves (default 0.1)")
    p_serve.add_argument("--request-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="deadline for each sharded serving request; "
                              "requests that miss it are retried on a "
                              "healthy shard then answered with a degraded "
                              "verdict (default 30, 0 disables)")
    p_serve.add_argument("--max-body-bytes", type=int, default=None,
                         metavar="N",
                         help="with --http: largest accepted request body; "
                              "bigger bodies get 413 (default 4 MiB)")
    p_serve.add_argument("--max-snippet-bytes", type=int, default=None,
                         metavar="N",
                         help="largest snippet the engine will lex; bigger "
                              "snippets get a neutral degraded verdict "
                              "(default 256 KiB, 0 disables)")
    p_serve.add_argument("--no-shared-weights", dest="share_weights",
                         action="store_false", default=True,
                         help="sharded serving: load a private weight copy "
                              "per worker instead of mapping one shared "
                              "read-only segment fleet-wide (the default "
                              "one-copy mode; see docs/operations.md for "
                              "/dev/shm sizing)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_compar = sub.add_parser("compar", help="run the ComPar S2S combiner on a file")
    p_compar.add_argument("file")
    p_compar.set_defaults(fn=_cmd_compar)

    p_rep = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    p_rep.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    p_rep.set_defaults(fn=_cmd_reproduce)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
