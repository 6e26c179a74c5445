"""Command-line interface.

Subcommands: gen-synthetic, consensus-stats, train, grid, eval, attn-map.
Every command is deterministic given its flags; all randomness flows from
explicit seeds.  Exit codes: 0 success, 2 usage or config error, 3 data
error, 4 numeric failure during training.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bags import (BagFormatError, generate_synthetic, read_bag, read_manifest,
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


def _parse_triple(text: str, allow_out_of_range: bool) -> WeightTriple:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 3:
        raise UsageError(f"weights must be three comma-separated numbers, "
                         f"got {text!r}")
    try:
        nc, hec, hoc = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad weight triple {text!r}") from exc
    return _config(WeightTriple, nc, hec, hoc, allow_out_of_range=allow_out_of_range)


def _parse_pair_grid(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad (alpha,beta) point {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise UsageError(f"bad (alpha,beta) point {chunk!r}") from exc
    if not pairs:
        raise UsageError("empty (alpha,beta) grid")
    return pairs


def _parse_triple_grid(text: str) -> list[WeightTriple]:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            triples.append(_parse_triple(chunk, allow_out_of_range=True))
    if not triples:
        raise UsageError("empty weight grid")
    return triples


def _data_root(args) -> Path:
    root = args.data or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise UsageError(f"no data directory: pass --data or set {DATA_ROOT_ENV}")
    return Path(root)


def _load_samples(manifest_path: Path, *splits: str):
    """Samples of each requested split; none of them may be empty."""
    entries = read_manifest(manifest_path)
    samples = {split: samples_from_entries(split_bags(entries, split))
               for split in splits}
    empty = [split for split in splits if not samples[split]]
    if empty:
        raise ValueError(f"no {'/'.join(empty)} slides in {manifest_path}")
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


def _train_one_seed(model_config, train_config, seed, samples):
    mc = replace(model_config, init_seed=seed)
    tc = replace(train_config, seed=seed)
    result = train(mc, tc, samples["train"], samples["val"])
    y_true = np.array([s.label for s in samples["test"]], dtype=np.int64)
    y_pred = predict_classes(result.params, mc, samples["test"])
    return mc, result, y_true, y_pred


def _seed_mean_ci(y_true, preds_per_seed, metric_fn, n_resamples, seed):
    """Bootstrap CI of the seed-mean metric; a resampled slide keeps its
    label and every seed's prediction for it."""
    records = np.column_stack([y_true, *preds_per_seed]).astype(np.int64)

    def metric(sample):
        y = sample[:, 0]
        return float(np.mean([metric_fn(confusion(y, sample[:, si]))
                              for si in range(1, sample.shape[1])]))

    return bootstrap_ci(records, metric, n_resamples=n_resamples, seed=seed)


def cmd_train(args) -> int:
    weights = None
    if args.method == "weighted":
        if not args.weights:
            raise UsageError("--method weighted needs --weights NC,HEC,HOC")
        weights = _parse_triple(args.weights, args.allow_any_weights)
    elif args.weights:
        raise UsageError("--weights only applies to --method weighted")
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
    seed_results = []
    preds_per_seed = []
    y_true = None
    for seed in seeds:
        mc, result, y_true, y_pred = _train_one_seed(
            model_config, train_config, seed, samples)
        params_name = f"{out_path.stem}_params_seed{seed}.npz"
        save_params(result.params, mc, out_path.parent / params_name)
        m = confusion(y_true, y_pred)
        seed_results.append(SeedResult(
            seed=seed,
            balanced_accuracy=balanced_accuracy(m),
            weighted_f1=weighted_f1(m),
            per_class=per_class_accuracy(m),
            best_epoch=result.best_epoch,
            params_path=params_name,
            history=[(h.epoch, h.train_loss, h.val_balanced_accuracy)
                     for h in result.history]))
        preds_per_seed.append(y_pred)
        print(f"seed {seed}: test balanced accuracy "
              f"{format_score(seed_results[-1].balanced_accuracy)}, "
              f"best epoch {result.best_epoch}")

    ci_ba = _seed_mean_ci(y_true, preds_per_seed, balanced_accuracy,
                          args.bootstrap, args.stats_seed)
    ci_f1 = _seed_mean_ci(y_true, preds_per_seed, weighted_f1,
                          args.bootstrap, args.stats_seed)
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
        mean_balanced_accuracy=float(np.mean(
            [s.balanced_accuracy for s in seed_results])),
        mean_weighted_f1=float(np.mean([s.weighted_f1 for s in seed_results])),
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
        points = (_parse_pair_grid(args.grid_ab) if args.grid_ab
                  else list(DEFAULT_ALPHA_BETA_GRID))
        configs = [_config(TrainConfig, method="multitask", alpha=a, beta=b,
                           learning_rate=args.lr, epochs=args.epochs)
                   for a, b in points]
        labels = [f"({a:g},{b:g})" for a, b in points]
    elif args.method == "weighted":
        triples = (_parse_triple_grid(args.grid_weights) if args.grid_weights
                   else [WeightTriple(*t, allow_out_of_range=True)
                         for t in DEFAULT_WEIGHT_GRID])
        configs = [_config(TrainConfig, method="weighted", weights=t,
                           learning_rate=args.lr, epochs=args.epochs)
                   for t in triples]
        labels = [f"({t.no_consensus:g},{t.heterogeneous:g},{t.homogeneous:g})"
                  for t in triples]
    else:
        raise UsageError("grid search supports --method multitask or weighted")

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
        Path(args.out).write_text(table + "\n")
        print(f"table: {args.out}")
    return EXIT_OK


# ---- eval -------------------------------------------------------------------------


def _load_system(target: Path, manifest_path: Path | None):
    """Per-seed (params, config) of a params archive or a run report.

    Returns (manifest_path, models, stored_report).  A report is evaluated on
    its recorded manifest unless one is given, whose fingerprint must match.
    """
    if target.suffix == ".npz":
        models = [load_params(target)]
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
    models = [load_params(target.parent / s.params_path) for s in report.seeds]
    return manifest_path, models, report


def cmd_eval(args) -> int:
    manifest_path = None
    if args.manifest:
        manifest_path = Path(args.manifest)
    elif args.data or os.environ.get(DATA_ROOT_ENV):
        manifest_path = _data_root(args) / "manifest.tsv"

    manifest_path, models, stored = _load_system(Path(args.target), manifest_path)
    samples = _load_samples(manifest_path, args.split)[args.split]
    y_true = np.array([s.label for s in samples], dtype=np.int64)
    preds = [predict_classes(params, mc, samples) for params, mc in models]

    per_seed_ms = [confusion(y_true, p) for p in preds]
    mean_ba = float(np.mean([balanced_accuracy(m) for m in per_seed_ms]))
    mean_f1 = float(np.mean([weighted_f1(m) for m in per_seed_ms]))

    # stored per-seed numbers are test metrics, so only cross-check on test
    if stored is not None and args.split == "test":
        recomputed = [balanced_accuracy(m) for m in per_seed_ms]
        for seed_result, value in zip(stored.seeds, recomputed):
            if value != seed_result.balanced_accuracy:
                raise ValueError(
                    f"seed {seed_result.seed}: recomputed balanced accuracy "
                    f"{value!r} differs from report "
                    f"{seed_result.balanced_accuracy!r}")
        print(f"report metrics reproduced for seeds "
              f"{','.join(str(s.seed) for s in stored.seeds)}")

    ci_ba = _seed_mean_ci(y_true, preds, balanced_accuracy,
                          args.bootstrap, args.stats_seed)
    ci_f1 = _seed_mean_ci(y_true, preds, weighted_f1,
                          args.bootstrap, args.stats_seed)

    p_value = None
    if args.compare:
        # system B is predicted on A's samples, so both cover the same slides
        _, other_models, _ = _load_system(Path(args.compare), manifest_path)
        if len(other_models) != len(preds):
            raise ValueError(f"compared runs have different seed counts "
                             f"({len(preds)} vs {len(other_models)})")
        other_preds = [predict_classes(params, mc, samples)
                       for params, mc in other_models]
        correct_a = np.concatenate([(p == y_true).astype(float) for p in preds])
        correct_b = np.concatenate([(p == y_true).astype(float)
                                    for p in other_preds])
        tiled_true = np.concatenate([y_true] * len(preds))
        p_value = paired_permutation_test(correct_a, correct_b, tiled_true,
                                          statistic=args.statistic,
                                          n_permutations=args.permutations,
                                          seed=args.stats_seed)

    print(f"slides: {len(samples)} ({args.split}); seeds: {len(preds)}")
    starred = p_value is not None and p_value < 0.05
    print(f"balanced accuracy: "
          f"{format_score(mean_ba, ci_ba.offsets(), starred)}")
    print(f"weighted F1:       {format_score(mean_f1, ci_f1.offsets())}")
    pooled = confusion(np.concatenate([y_true] * len(preds)),
                       np.concatenate(preds))
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
    output = forward_bag(params, mc, bag)
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
    except (BagFormatError, FileNotFoundError, IsADirectoryError,
            KeyError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
