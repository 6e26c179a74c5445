"""Command-line interface.

Subcommands: gen-synthetic, consensus-stats, train, grid, eval, attn-map.
Every command is deterministic given its flags; all randomness flows from
explicit seeds.  Exit codes: 0 success, 2 usage or config error, 3 data
error, 4 numeric failure during training.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bags import (generate_synthetic, open_atomic, read_bag, read_manifest,
                   split_bags, CALIBRATION_TARGETS, SynthConfig)
from .gleason import (ConsensusLevel, WeightTriple, class_of, consensus_level)
from .metrics import (balanced_accuracy, bootstrap_ci, confusion,
                      paired_permutation_test, per_class_accuracy, weighted_f1)
from .models import HEAD_KINDS, ModelConfig, extract_attention, forward_bag
from .reports import (RunReport, SeedResult, format_score, heatmap_grid,
                      load_params, manifest_fingerprint, read_report, save_params,
                      write_attention_table, write_pgm, write_report)
from .training import (DEFAULT_ALPHA_BETA_GRID, DEFAULT_SEEDS, DEFAULT_WEIGHT_GRID,
                       METHODS, NumericError, TrainConfig, grid_search,
                       predict_classes, samples_from_entries, train)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATA_ROOT_ENV = "WSDMIL_DATA_ROOT"

CLASS_DISPLAY = ("Benign", "Gleason 3", "Gleason 4", "Gleason 5")

LEVEL_ORDER = (ConsensusLevel.HOMOGENEOUS, ConsensusLevel.HETEROGENEOUS,
               ConsensusLevel.NO_CONSENSUS)


class UsageError(Exception):
    """Bad flag combination or invalid configuration value."""


def _config(builder, *args, **kwargs):
    """Build a config object, converting validation errors to usage errors."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad seed list {text!r}") from exc
    if not seeds:
        raise UsageError("at least one seed required")
    return seeds


def _parse_point(text: str, arity: int) -> tuple[float, ...]:
    """``arity`` comma-separated numbers, optionally in parentheses."""
    try:
        point = tuple(float(p) for p in text.strip().strip("()").split(","))
    except ValueError:
        point = ()
    if len(point) != arity:
        raise UsageError(f"bad point {text!r}: expected {arity} "
                         f"comma-separated numbers")
    return point


def _check_counts(args, *flags: str) -> None:
    """Reject a resample or permutation count below one before any file is
    read."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise UsageError(f"--{flag} must be >= 1, got {value}")


def _data_root(args) -> Path:
    root = args.data or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise UsageError(f"no data directory: pass --data or set {DATA_ROOT_ENV}")
    return Path(root)


def _load_samples(manifest_path: Path, *splits: str):
    """Samples of each requested split; none of them may be empty, and all
    bags must share one feature dim.  The splits load in the order given,
    as one run of ``samples_from_entries``, so its resident budget covers
    them all."""
    entries = read_manifest(manifest_path)
    per_split = [split_bags(entries, split) for split in splits]
    loaded = iter(samples_from_entries([e for es in per_split for e in es]))
    samples = {split: list(itertools.islice(loaded, len(es)))
               for split, es in zip(splits, per_split)}
    empty = [split for split in splits if not samples[split]]
    if empty:
        raise ValueError(f"no {'/'.join(empty)} slides in {manifest_path}")
    first, *rest = (s.bag for split in splits for s in samples[split])
    for bag in rest:
        if bag.d != first.d:
            raise ValueError(f"slide {bag.slide_id} has feature dim {bag.d}, but "
                             f"slide {first.slide_id} has {first.d}, in "
                             f"{manifest_path}")
    return samples


# ---- gen-synthetic ----------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    if args.slides is not None:
        if args.slides < 1:
            raise UsageError("--slides must be >= 1")
        n_train = round(args.slides * 2 / 3)
        n_val = round(args.slides / 6)
        n_test = args.slides - n_train - n_val
    else:
        try:
            n_train, n_val, n_test = (int(t) for t in args.splits.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --splits {args.splits!r}") from exc
    config = _config(SynthConfig, n_train=n_train, n_val=n_val, n_test=n_test,
                     feature_dim=args.dim, seed=args.seed,
                     size_factor=args.size_factor, noise_sigma=args.noise_sigma)
    result = generate_synthetic(config, args.out)
    print(f"wrote {len(result.entries)} bags under {Path(args.out) / 'bags'}")
    print(f"manifest: {result.manifest_path}")
    print("consensus mix vs calibration targets:")
    for level in LEVEL_ORDER:
        print(f"  {level.value:<14} {result.fractions[level] * 100:5.1f}%"
              f"  (target {CALIBRATION_TARGETS[level] * 100:.1f}%)")
    return EXIT_OK


# ---- consensus-stats --------------------------------------------------------------


def cmd_consensus_stats(args) -> int:
    entries = read_manifest(args.manifest)
    missing = [e.slide_id for e in entries if e.nonexpert is None]
    if missing:
        raise ValueError(f"entries without non-expert score: "
                         f"{', '.join(missing[:10])}")
    if not entries:
        raise ValueError("manifest has no entries")
    counts = {lvl: 0 for lvl in ConsensusLevel}
    by_class = np.zeros((4, 3), dtype=np.int64)
    for e in entries:
        level = consensus_level(e.expert, e.nonexpert)
        counts[level] += 1
        by_class[class_of(e.expert), LEVEL_ORDER.index(level)] += 1
    total = len(entries)
    print(f"slides: {total}")
    print("overall consensus mix:")
    for level in LEVEL_ORDER:
        print(f"  {level.value:<14} {counts[level] * 100 / total:5.1f}%")
    print("per expert class (homogeneous / heterogeneous / no consensus):")
    for c, name in enumerate(CLASS_DISPLAY):
        row = by_class[c]
        if row.sum() == 0:
            print(f"  {name:<10} (no slides)")
            continue
        pct = row * 100 / row.sum()
        print(f"  {name:<10} {pct[0]:5.1f}% / {pct[1]:5.1f}% / {pct[2]:5.1f}%"
              f"   (n={row.sum()})")
    return EXIT_OK


# ---- train ------------------------------------------------------------------------


def _seed_mean_ci(y_true, preds_per_seed, metric_fn, n_resamples, seed):
    """Bootstrap CI of the seed-mean metric; a resampled slide keeps its
    label and every seed's prediction for it.

    A slide's record holds its confusion cell ``4 * label + prediction`` for
    each seed, offset by 16 per seed.  A chunk of resamples is offset by
    ``16 * seeds`` per resample, so one bincount gives every resample's
    confusion matrix for every seed.  Labels and predictions must lie in
    0..3.
    """
    seeds = len(preds_per_seed)
    records = (4 * np.asarray(y_true, dtype=np.int64)[:, None]
               + np.column_stack(preds_per_seed) + 16 * np.arange(seeds))

    def metric(chunk):
        rows = len(chunk)
        cells = chunk.reshape(rows, -1) + 16 * seeds * np.arange(rows)[:, None]
        counts = np.bincount(cells.ravel(), minlength=16 * seeds * rows)
        return metric_fn(counts.reshape(rows, seeds, 4, 4)).sum(axis=-1) / seeds

    return bootstrap_ci(records, metric, n_resamples=n_resamples, seed=seed,
                        stacked=True)


def _score(models, samples, n_resamples, stats_seed):
    """Labels, per-seed predictions and confusions, and the seed-mean CIs
    of balanced accuracy and weighted F1 (whose points are the seed means)
    of (params, config) pairs on one split; both train and eval use it."""
    y_true = np.array([s.label for s in samples], dtype=np.int64)
    preds = [predict_classes(params, mc, samples) for params, mc in models]
    confusions = [confusion(y_true, p) for p in preds]
    ci_ba = _seed_mean_ci(y_true, preds, balanced_accuracy, n_resamples,
                          stats_seed)
    ci_f1 = _seed_mean_ci(y_true, preds, weighted_f1, n_resamples, stats_seed)
    return y_true, preds, confusions, ci_ba, ci_f1


def cmd_train(args) -> int:
    _check_counts(args, "bootstrap")
    weights = None
    if args.weights:
        weights = _config(WeightTriple, *_parse_point(args.weights, 3),
                          allow_out_of_range=args.allow_any_weights)
    elif args.method == "weighted":
        raise UsageError("--method weighted needs --weights NC,HEC,HOC")
    seeds = _parse_seeds(args.seeds)
    train_config = _config(TrainConfig, method=args.method, alpha=args.alpha,
                           beta=args.beta, weights=weights,
                           learning_rate=args.lr, epochs=args.epochs)

    data = _data_root(args)
    manifest_path = data / "manifest.tsv"
    samples = _load_samples(manifest_path, "train", "val", "test")
    input_dim = samples["train"][0].bag.d
    model_config = _config(ModelConfig, head_kind=args.model, input_dim=input_dim,
                           hidden_dim=args.hidden_dim,
                           attention_dim=args.attention_dim,
                           with_regression_head=(args.method == "multitask"))

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    configs = [replace(model_config, init_seed=seed) for seed in seeds]
    results = [train(mc, replace(train_config, seed=mc.init_seed),
                     samples["train"], samples["val"]) for mc in configs]
    _, _, confusions, ci_ba, ci_f1 = _score(
        [(r.params, mc) for r, mc in zip(results, configs)], samples["test"],
        args.bootstrap, args.stats_seed)
    seed_results = []
    for seed, mc, result, m in zip(seeds, configs, results, confusions):
        params_name = f"{out_path.stem}_params_seed{seed}.npz"
        save_params(result.params, mc, out_path.parent / params_name)
        seed_results.append(SeedResult(
            seed=seed,
            balanced_accuracy=balanced_accuracy(m),
            weighted_f1=weighted_f1(m),
            per_class=per_class_accuracy(m),
            best_epoch=result.best_epoch,
            params_path=params_name,
            history=[(h.epoch, h.train_loss, h.val_balanced_accuracy)
                     for h in result.history]))
        print(f"seed {seed}: test balanced accuracy "
              f"{format_score(seed_results[-1].balanced_accuracy)}, "
              f"best epoch {result.best_epoch}")

    report = RunReport(
        config={
            "method": args.method,
            "model": args.model,
            "alpha": repr(args.alpha),
            "beta": repr(args.beta),
            "weights": "-" if weights is None else
                       ",".join(repr(w) for w in weights.as_tuple()),
            "learning_rate": repr(args.lr),
            "epochs": str(args.epochs),
            "hidden_dim": str(args.hidden_dim),
            "attention_dim": str(args.attention_dim),
            "input_dim": str(input_dim),
            "seeds": ",".join(str(s) for s in seeds),
        },
        manifest=str(manifest_path.resolve()),
        fingerprint=manifest_fingerprint(manifest_path),
        seeds=seed_results,
        mean_balanced_accuracy=ci_ba.point,
        mean_weighted_f1=ci_f1.point,
        ci_balanced_accuracy=ci_ba.offsets(),
        ci_weighted_f1=ci_f1.offsets())
    write_report(report, out_path)
    print(f"seed-mean test balanced accuracy: {report.display_line()}")
    print(f"report: {out_path}")
    return EXIT_OK


# ---- grid -------------------------------------------------------------------------


def cmd_grid(args) -> int:
    seeds = _parse_seeds(args.seeds)
    if args.method == "multitask":
        if args.grid_weights:
            raise UsageError("--grid-weights only applies to --method weighted")
        text, points = args.grid_ab, DEFAULT_ALPHA_BETA_GRID

        def point_config(alpha, beta):
            return {"alpha": alpha, "beta": beta}
    else:  # the parser allows only multitask and weighted
        if args.grid_ab:
            raise UsageError("--grid-ab only applies to --method multitask")
        text, points = args.grid_weights, DEFAULT_WEIGHT_GRID

        def point_config(*triple):
            return {"weights": _config(WeightTriple, *triple,
                                       allow_out_of_range=True)}
    if text:
        points = [_parse_point(chunk, len(points[0]))
                  for chunk in text.split(";") if chunk.strip()]
        if not points:
            raise UsageError(f"empty grid {text!r}")
    configs = [_config(TrainConfig, method=args.method, learning_rate=args.lr,
                       epochs=args.epochs, **point_config(*point))
               for point in points]
    labels = [f"({','.join(f'{x:g}' for x in point)})" for point in points]

    data = _data_root(args)
    samples = _load_samples(data / "manifest.tsv", "train", "val")
    model_config = _config(ModelConfig, head_kind=args.model,
                           input_dim=samples["train"][0].bag.d,
                           hidden_dim=args.hidden_dim,
                           attention_dim=args.attention_dim)
    result = grid_search(model_config, configs, samples["train"],
                         samples["val"], seeds)

    header = ["point"] + [label + ("*" if i == result.best_index else "")
                          for i, label in enumerate(labels)]
    ba_row = ["bal_acc"] + [f"{r.mean_balanced_accuracy * 100:.1f}"
                            for r in result.rows]
    f1_row = ["w_f1"] + [f"{r.mean_weighted_f1 * 100:.1f}" for r in result.rows]
    widths = [max(len(col[i]) for col in (header, ba_row, f1_row))
              for i in range(len(header))]
    lines = [f"method: {args.method}  model: {args.model}  "
             f"seeds: {','.join(str(s) for s in seeds)}"]
    for row in (header, ba_row, f1_row):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    lines.append(f"best: {labels[result.best_index]} "
                 f"(validation balanced accuracy "
                 f"{result.best.mean_balanced_accuracy * 100:.1f})")
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open_atomic(args.out) as fh:
            fh.write((table + "\n").encode())
        print(f"table: {args.out}")
    return EXIT_OK


# ---- eval -------------------------------------------------------------------------


def _load_system(target: Path, manifest_path: Path | None):
    """Per-seed (archive path, (params, config)) of a params archive or a
    run report.

    Returns (manifest_path, models, stored_report).  A report is evaluated on
    its recorded manifest unless one is given, whose fingerprint must match.
    """
    if target.suffix == ".npz":
        models = [(target, load_params(target))]
        if manifest_path is None:
            raise ValueError("--manifest (or --data) required when evaluating "
                             "a parameter archive")
        return manifest_path, models, None

    report = read_report(target)
    if manifest_path is None:
        manifest_path = Path(report.manifest)
    fingerprint = manifest_fingerprint(manifest_path)
    if fingerprint != report.fingerprint:
        raise ValueError(f"manifest {manifest_path} fingerprint {fingerprint[:12]} "
                         f"does not match report {report.fingerprint[:12]}")
    paths = [target.parent / s.params_path for s in report.seeds]
    return manifest_path, [(p, load_params(p)) for p in paths], report


def cmd_eval(args) -> int:
    _check_counts(args, "bootstrap", "permutations")
    manifest_path = None
    if args.manifest:
        manifest_path = Path(args.manifest)
    elif args.data or os.environ.get(DATA_ROOT_ENV):
        manifest_path = _data_root(args) / "manifest.tsv"

    manifest_path, models, stored = _load_system(Path(args.target), manifest_path)
    samples = _load_samples(manifest_path, args.split)[args.split]
    other_models = []
    if args.compare:
        # system B is predicted on A's samples, so both cover the same slides
        _, other_models, _ = _load_system(Path(args.compare), manifest_path)
        if len(other_models) != len(models):
            raise ValueError(f"compared runs have different seed counts "
                             f"({len(models)} vs {len(other_models)})")
    bag = samples[0].bag  # _load_samples checked that all bags share one dim
    for path, (_, mc) in models + other_models:
        if mc.input_dim != bag.d:
            raise ValueError(f"{path} has model input dim {mc.input_dim}, but "
                             f"slide {bag.slide_id} in {manifest_path} has "
                             f"feature dim {bag.d}")
    y_true, preds, per_seed_ms, ci_ba, ci_f1 = _score(
        [model for _, model in models], samples, args.bootstrap, args.stats_seed)

    # stored numbers are test metrics, so only cross-check on test; the CI
    # offsets depend on --bootstrap and --stats-seed, which are not recorded
    if stored is not None and args.split == "test":
        checks = [(f"seed {s.seed}", key, getattr(s, key), fn(m))
                  for s, m in zip(stored.seeds, per_seed_ms)
                  for key, fn in (("balanced_accuracy", balanced_accuracy),
                                  ("weighted_f1", weighted_f1),
                                  ("per_class", per_class_accuracy))]
        checks += [("mean", "balanced_accuracy", stored.mean_balanced_accuracy,
                    ci_ba.point),
                   ("mean", "weighted_f1", stored.mean_weighted_f1, ci_f1.point)]
        for section, key, want, got in checks:
            if got != want:
                raise ValueError(f"[{section}] {key}: recomputed {got!r} "
                                 f"differs from report {want!r}")
        print(f"report metrics reproduced for seeds "
              f"{','.join(str(s.seed) for s in stored.seeds)}")

    p_value = None
    if args.compare:
        other_preds = [predict_classes(params, mc, samples)
                       for _, (params, mc) in other_models]
        tiled_true = np.concatenate([y_true] * len(preds))
        correct_a = (np.concatenate(preds) == tiled_true).astype(float)
        correct_b = (np.concatenate(other_preds) == tiled_true).astype(float)
        p_value = paired_permutation_test(correct_a, correct_b, tiled_true,
                                          statistic=args.statistic,
                                          n_permutations=args.permutations,
                                          seed=args.stats_seed)

    print(f"slides: {len(samples)} ({args.split}); seeds: {len(preds)}")
    starred = p_value is not None and p_value < 0.05
    print(f"balanced accuracy: "
          f"{format_score(ci_ba.point, ci_ba.offsets(), starred)}")
    print(f"weighted F1:       {format_score(ci_f1.point, ci_f1.offsets())}")
    pooled = sum(per_seed_ms)
    print("per-class accuracy (pooled over seeds):")
    for name, value in zip(CLASS_DISPLAY, per_class_accuracy(pooled)):
        text = "absent" if value is None else f"{value * 100:.1f}%"
        print(f"  {name:<10} {text}")
    if p_value is not None:
        marker = " *" if starred else ""
        print(f"paired permutation p-value vs {args.compare}: "
              f"{p_value:.4f}{marker}")
    return EXIT_OK


# ---- attn-map ---------------------------------------------------------------------


def cmd_attn_map(args) -> int:
    params, mc = load_params(Path(args.params))
    bag = read_bag(args.bag)
    if mc.input_dim != bag.d:
        raise ValueError(f"{args.params} has model input dim {mc.input_dim}, but "
                         f"bag {args.bag} has feature dim {bag.d}")
    output = forward_bag({k: p.data for k, p in params.items()}, mc, bag)
    pairs = extract_attention(output, bag)
    grid = heatmap_grid(pairs)
    out_prefix = Path(args.out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    table_path = out_prefix.with_suffix(".txt")
    image_path = out_prefix.with_suffix(".pgm")
    write_attention_table(pairs, table_path)
    write_pgm(grid, image_path)
    print(f"bag {bag.slide_id}: {bag.n} instances, "
          f"predicted {CLASS_DISPLAY[output.predicted_class()]}")
    print(f"attention table: {table_path}")
    print(f"heatmap: {image_path} ({grid.shape[1]}x{grid.shape[0]})")
    return EXIT_OK


# ---- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsdmil",
        description="Difficulty-aware MIL training on whole-slide feature bags")
    sub = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help=f"dataset directory (default ${DATA_ROOT_ENV})")
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--model", choices=HEAD_KINDS, default="abmil")
    fit.add_argument("--lr", type=float, default=1e-3)
    fit.add_argument("--epochs", type=int, default=30)
    fit.add_argument("--hidden-dim", type=int, default=256)
    fit.add_argument("--attention-dim", type=int, default=128)
    fit.add_argument("--seeds", default=",".join(str(s) for s in DEFAULT_SEEDS))
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--bootstrap", type=int, default=1000,
                       help="bootstrap resamples for the CI")
    stats.add_argument("--stats-seed", type=int, default=0)

    p = sub.add_parser("gen-synthetic", help="write a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--slides", type=int, default=None,
                   help="total slides, split 4:1:1 into train/val/test")
    p.add_argument("--splits", default="600,150,150",
                   help="explicit train,val,test counts")
    p.add_argument("--dim", type=int, default=32, help="feature dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size-factor", type=float, default=0.1,
                   help="bag-size scale (1.0 = 68..1187 instances)")
    p.add_argument("--noise-sigma", type=float, default=0.7)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("consensus-stats", help="consensus mix of a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_consensus_stats)

    p = sub.add_parser("train", parents=[data, fit, stats],
                       help="train one configuration across seeds")
    p.add_argument("--method", choices=METHODS, default="baseline")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--weights", help="NC,HEC,HOC for --method weighted")
    p.add_argument("--allow-any-weights", action="store_true",
                   help="skip the weight-range validation (ablations)")
    p.add_argument("--out", required=True, help="report file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", parents=[data, fit],
                       help="hyperparameter grid search on validation")
    p.add_argument("--method", choices=("multitask", "weighted"), required=True)
    p.add_argument("--grid-ab", help='e.g. "(1,0);(1,1);(1,10)"')
    p.add_argument("--grid-weights", help='e.g. "(1,1,1);(4,3,1)"')
    p.add_argument("--out", help="write the table here as well")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", parents=[data, stats],
                       help="evaluate a report or parameter archive")
    p.add_argument("target", help="run report (.txt) or parameter archive (.npz)")
    p.add_argument("--manifest", help="manifest to evaluate on "
                   "(default: the one recorded in the report)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--compare", help="second report/archive for a paired "
                   "permutation test")
    p.add_argument("--statistic", choices=("balanced_accuracy_diff",
                                           "accuracy_diff"),
                   default="balanced_accuracy_diff")
    p.add_argument("--permutations", type=int, default=10_000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attn-map", help="export attention heatmap for one bag")
    p.add_argument("--params", required=True, help="parameter archive (.npz)")
    p.add_argument("--bag", required=True, help="bag file")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.txt and <prefix>.pgm")
    p.set_defaults(func=cmd_attn_map)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # BagFormatError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
