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
from .metrics import (PERMUTATION_STATISTICS, balanced_accuracy, bootstrap_ci,
                      confusion, paired_permutation_test, per_class_accuracy,
                      weighted_f1)
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

# report key -> per-seed test metric, a function of the confusion matrix;
# [mean] holds the seed mean and CI of each MEAN_METRICS key
SEED_METRICS = {"balanced_accuracy": balanced_accuracy,
                "weighted_f1": weighted_f1,
                "per_class": per_class_accuracy}
MEAN_METRICS = ("balanced_accuracy", "weighted_f1")


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
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"bad seed list {text!r}: a seed is repeated")
    if min(seeds) < 0:
        raise UsageError(f"--seeds must be >= 0, got {min(seeds)}")
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


def _check_at_least(args, **minimums: int) -> None:
    """Reject an integer flag below its minimum (a count below one, a
    negative seed) before any file is read or written."""
    for flag, low in minimums.items():
        value = getattr(args, flag)
        if value < low:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= {low}, "
                             f"got {value}")


def _data_manifest(args, recorded=None) -> Path:
    """The manifest a command reads: manifest.tsv under --data, else a
    report's ``recorded`` manifest, else manifest.tsv under $WSDMIL_DATA_ROOT."""
    if recorded is not None and not args.data:
        return Path(recorded)
    root = args.data or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise UsageError(f"no data directory: pass --data or set {DATA_ROOT_ENV}")
    return Path(root) / "manifest.tsv"


def _check(path, rows, source=None) -> None:
    """Reject a file whose stored values are not the actual ones: each row is
    (section, key, stored, actual), and a stored None is a missing key.  A
    disagreement names the ``source`` the actual values come from, if any."""
    for section, key, stored, actual in rows:
        if stored is None:
            raise ValueError(f"{path}: [{section}] has no {key!r}")
        if stored != actual:
            where = f" ({source})" if source else ""
            raise ValueError(f"{path}: [{section}] {key} {stored!r} should be "
                             f"{actual!r}{where}")


def _check_file_path(flag: str, path: str) -> None:
    """Reject an output path whose last component is empty or names an
    existing directory, before any file is read or written."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise UsageError(f"{flag} {path!r} must name a file, not a directory")


def _check_input_dim(archive, mc: ModelConfig, bag, where: str) -> None:
    """Reject a model whose input dim is not the feature dim of ``where``."""
    if mc.input_dim != bag.d:
        raise ValueError(f"{archive} has model input dim {mc.input_dim}, but "
                         f"{where} has feature dim {bag.d}")


def _setup(args, *splits: str):
    """Seeds, model config, manifest path and samples of a training command.

    The flags are checked before any file is read: the model config is
    built with a placeholder input dim that the bags' dim then replaces.
    """
    seeds = _parse_seeds(args.seeds)
    model_config = _config(ModelConfig, head_kind=args.model, input_dim=1,
                           hidden_dim=args.hidden_dim,
                           attention_dim=args.attention_dim,
                           with_regression_head=(args.method == "multitask"))
    manifest_path = _data_manifest(args)
    samples = _load_samples(manifest_path, *splits)
    model_config = replace(model_config, input_dim=samples[splits[0]][0].bag.d)
    return seeds, model_config, manifest_path, samples


def _load_samples(manifest_path: Path, *splits: str):
    """Samples of each requested split; none of them may be empty, and all
    bags must share one feature dim.  The splits load in the order given,
    as one run of ``samples_from_entries``, so its resident budget covers
    them all."""
    entries = read_manifest(manifest_path)
    per_split = [split_bags(entries, split) for split in splits]
    empty = [split for split, es in zip(splits, per_split) if not es]
    if empty:
        raise ValueError(f"no {'/'.join(empty)} slides in {manifest_path}")
    loaded = iter(samples_from_entries([e for es in per_split for e in es]))
    samples = {split: list(itertools.islice(loaded, len(es)))
               for split, es in zip(splits, per_split)}
    first, *rest = (s.bag for split in splits for s in samples[split])
    for bag in rest:
        if bag.d != first.d:
            raise ValueError(f"slide {bag.slide_id} has feature dim {bag.d}, but "
                             f"slide {first.slide_id} has {first.d}, in "
                             f"{manifest_path}")
    return samples


# ---- gen-synthetic ----------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    _check_at_least(args, seed=0)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise UsageError(f"--out {args.out!r} must name a directory, not a file")
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
    for level in ConsensusLevel:
        print(f"  {level.value:<14} {result.fractions[level] * 100:5.1f}%"
              f"  (target {CALIBRATION_TARGETS[level] * 100:.1f}%)")
    return EXIT_OK


# ---- consensus-stats --------------------------------------------------------------


def cmd_consensus_stats(args) -> int:
    manifest_path = _data_manifest(args)
    entries = read_manifest(manifest_path)
    scored = [e for e in entries if e.nonexpert is not None]
    if not scored:
        raise ValueError(f"{manifest_path}: no slide has both scores")
    levels = list(ConsensusLevel)
    by_class = np.zeros((4, len(levels)), dtype=np.int64)
    for e in scored:
        by_class[class_of(e.expert),
                 levels.index(consensus_level(e.expert, e.nonexpert))] += 1
    total = len(scored)
    print(f"slides: {len(entries)}")
    if total < len(entries):
        print(f"slides without a non-expert score, not counted: {len(entries) - total}")
    print("overall consensus mix:")
    for level, count in zip(levels, by_class.sum(axis=0)):
        print(f"  {level.value:<14} {count * 100 / total:5.1f}%")
    print("per expert class (homogeneous / heterogeneous / no consensus):")
    for name, row in zip(CLASS_DISPLAY, by_class):
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
    label and every seed's prediction for it.  ``metric_fn`` maps a stack of
    confusion matrices to one value per matrix, or to k values per matrix
    along a new first axis; k metrics share one draw of resamples and give a
    list of k CIs.  Every resample keeps a slide, so every metric is defined.

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
        return (metric_fn(counts.reshape(rows, seeds, 4, 4)).sum(axis=-1) / seeds).T

    return bootstrap_ci(records, metric, n_resamples=n_resamples, seed=seed)


def _score(models, samples, n_resamples, stats_seed):
    """Labels, per-seed predictions and confusions, and the seed-mean CI of
    each MEAN_METRICS key (whose point is the seed mean) of (params, config)
    pairs on one split; both train and eval use it."""
    y_true = np.array([s.label for s in samples], dtype=np.int64)
    preds = [predict_classes(params, mc, samples) for params, mc in models]
    confusions = [confusion(y_true, p) for p in preds]
    cis = dict(zip(MEAN_METRICS, _seed_mean_ci(
        y_true, preds, lambda m: np.stack([SEED_METRICS[k](m) for k in MEAN_METRICS]),
        n_resamples, stats_seed)))
    return y_true, preds, confusions, cis


def cmd_train(args) -> int:
    _check_at_least(args, bootstrap=1, stats_seed=0)
    _check_file_path("--out", args.out)
    weights = None
    if args.weights:
        weights = _config(WeightTriple, *_parse_point(args.weights, 3),
                          allow_out_of_range=args.allow_any_weights)
    elif args.method == "weighted":
        raise UsageError("--method weighted needs --weights NC,HEC,HOC")
    train_config = _config(TrainConfig, method=args.method, alpha=args.alpha,
                           beta=args.beta, weights=weights,
                           learning_rate=args.lr, epochs=args.epochs)
    seeds, model_config, manifest_path, samples = _setup(args, "train", "val",
                                                         "test")

    out_path = Path(args.out)
    configs = [replace(model_config, init_seed=seed) for seed in seeds]
    results = [train(mc, replace(train_config, seed=mc.init_seed),
                     samples["train"], samples["val"]) for mc in configs]
    _, _, confusions, cis = _score(
        [(r.params, mc) for r, mc in zip(results, configs)], samples["test"],
        args.bootstrap, args.stats_seed)
    seed_results = []
    for seed, mc, result, m in zip(seeds, configs, results, confusions):
        params_name = f"{out_path.stem}_params_seed{seed}.npz"
        save_params(result.params, mc, out_path.parent / params_name)
        seed_results.append(SeedResult(
            seed=seed, best_epoch=result.best_epoch, params_path=params_name,
            history=result.history,
            **{key: fn(m) for key, fn in SEED_METRICS.items()}))
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
            "input_dim": str(model_config.input_dim),
            "seeds": ",".join(str(s) for s in seeds),
        },
        manifest=str(manifest_path.resolve()),
        fingerprint=manifest_fingerprint(manifest_path),
        seeds=seed_results,
        **{f"mean_{key}": ci.point for key, ci in cis.items()},
        **{f"ci_{key}": ci.offsets() for key, ci in cis.items()})
    write_report(report, out_path)
    print(f"seed-mean test balanced accuracy: {report.display_line()}")
    print(f"report: {out_path}")
    return EXIT_OK


# ---- grid -------------------------------------------------------------------------


def cmd_grid(args) -> int:
    if args.out:
        _check_file_path("--out", args.out)
    if args.method == "multitask":
        points = DEFAULT_ALPHA_BETA_GRID

        def point_config(alpha, beta):
            return {"alpha": alpha, "beta": beta}
    else:  # the parser allows only multitask and weighted
        points = DEFAULT_WEIGHT_GRID

        def point_config(*triple):
            return {"weights": _config(WeightTriple, *triple,
                                       allow_out_of_range=True)}
    if args.points is not None:
        points = [_parse_point(chunk, len(points[0]))
                  for chunk in args.points.split(";") if chunk.strip()]
        if not points:
            raise UsageError(f"empty grid {args.points!r}")
    configs = [_config(TrainConfig, method=args.method, learning_rate=args.lr,
                       epochs=args.epochs, **point_config(*point))
               for point in points]
    labels = [f"({','.join(f'{x:g}' for x in point)})" for point in points]

    seeds, model_config, _, samples = _setup(args, "train", "val")
    means, best = grid_search(model_config, configs, samples["train"],
                              samples["val"], seeds)

    header = ["point"] + [label + ("*" if i == best else "")
                          for i, label in enumerate(labels)]
    ba_row = ["bal_acc"] + [f"{ba * 100:.1f}" for ba, _ in means]
    f1_row = ["w_f1"] + [f"{f1 * 100:.1f}" for _, f1 in means]
    widths = [max(len(col[i]) for col in (header, ba_row, f1_row))
              for i in range(len(header))]
    lines = [f"method: {args.method}  model: {args.model}  "
             f"seeds: {','.join(str(s) for s in seeds)}"]
    for row in (header, ba_row, f1_row):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    lines.append(f"best: {labels[best]} (validation balanced accuracy "
                 f"{means[best][0] * 100:.1f})")
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open_atomic(args.out) as fh:
            fh.write((table + "\n").encode())
        print(f"table: {args.out}")
    return EXIT_OK


# ---- eval -------------------------------------------------------------------------


def _load_system(target: Path, args, manifest_path: Path | None = None):
    """Per-seed (archive path, (params, config)) of a params archive or a
    run report, whose config and history _check_report checks against them.

    Returns (manifest_path, models, stored_report).  Unless ``manifest_path``
    is given, it is _data_manifest's, which for a report is its recorded
    manifest unless --data replaces it; a report's fingerprint must match.
    """
    if target.suffix == ".npz":
        manifest_path = manifest_path or _data_manifest(args)
        return manifest_path, [(target, load_params(target))], None

    report = read_report(target)
    manifest_path = manifest_path or _data_manifest(args, report.manifest)
    _check(target, [("data", "fingerprint", report.fingerprint,
                     manifest_fingerprint(manifest_path))])
    paths = [target.parent / s.params_path for s in report.seeds]
    models = [(p, load_params(p)) for p in paths]
    _check_report(target, report, models)
    return manifest_path, models, report


def _check_report(path: Path, report, models) -> None:
    """Reject a report whose [config] or history disagrees with its archives:
    head, dims, method (multitask exactly with a regression head), seeds (the
    [seed N] sections in order, each its archive's init seed), epochs (each
    [history N] holds 0..epochs-1) and best_epoch (the first best validation
    epoch).  A missing key or a disagreement is _check's ValueError, naming
    the archive or [history N] the actual value comes from."""
    config = dict.fromkeys(("model", "hidden_dim", "attention_dim", "input_dim",
                            "method", "seeds", "epochs")) | report.config
    _check(path, [("config", "seeds", config["seeds"],
                   ",".join(str(s.seed) for s in report.seeds))])
    for s, (archive, (_, mc)) in zip(report.seeds, models):
        method = config["method"]
        if (method == "multitask") != mc.with_regression_head:
            method = "multitask" if mc.with_regression_head else "not multitask"
        scores = [v for _, _, v in s.history]
        dims = [("config", key, config[key], str(getattr(mc, key)))
                for key in ("hidden_dim", "attention_dim", "input_dim")]
        _check(path, dims + [
                ("config", "model", config["model"], mc.head_kind),
                ("config", "method", config["method"], method),
                (f"seed {s.seed}", "seed", s.seed, mc.init_seed)], f"archive {archive}")
        _check(path, [(f"history {s.seed}", "epochs", [e for e, _, _ in s.history],
                       list(range(len(scores))))])
        _check(path, [
                ("config", "epochs", config["epochs"], str(len(scores))),
                (f"seed {s.seed}", "best_epoch", s.best_epoch,
                 scores.index(max(scores)) if scores else None)], f"[history {s.seed}]")


def cmd_eval(args) -> int:
    _check_at_least(args, bootstrap=1, permutations=1, stats_seed=0)
    manifest_path, models, stored = _load_system(Path(args.target), args)
    samples = _load_samples(manifest_path, args.split)[args.split]
    other_models = []
    if args.compare:
        # system B is predicted on A's samples, so both cover the same slides
        _, other_models, _ = _load_system(Path(args.compare), args, manifest_path)
        if len(other_models) != len(models):
            raise ValueError(f"compared runs have different seed counts "
                             f"({len(models)} vs {len(other_models)})")
    bag = samples[0].bag  # _load_samples checked that all bags share one dim
    for path, (_, mc) in models + other_models:
        _check_input_dim(path, mc, bag, f"slide {bag.slide_id} in {manifest_path}")
    y_true, preds, per_seed_ms, cis = _score(
        [model for _, model in models], samples, args.bootstrap, args.stats_seed)

    # stored numbers are test metrics, so only cross-check on test; the CI
    # offsets depend on --bootstrap and --stats-seed, which are not recorded
    if stored is not None and args.split == "test":
        _check(args.target,
               [(f"seed {s.seed}", key, getattr(s, key), fn(m))
                for s, m in zip(stored.seeds, per_seed_ms)
                for key, fn in SEED_METRICS.items()]
               + [("mean", key, getattr(stored, f"mean_{key}"), ci.point)
                  for key, ci in cis.items()])
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
    ci_ba, ci_f1 = cis["balanced_accuracy"], cis["weighted_f1"]
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
    _check_file_path("--out-prefix", args.out_prefix)
    params, mc = load_params(Path(args.params))
    bag = read_bag(args.bag)
    _check_input_dim(args.params, mc, bag, f"bag {args.bag}")
    output = forward_bag(params, mc, bag)
    weights = extract_attention(output, bag)
    try:
        grid = heatmap_grid(bag.coords, weights)
    except ValueError as exc:
        raise ValueError(f"bag {args.bag}: {exc}") from None
    # not Path.with_suffix, which would cut the ".s00001" off "abmil.s00001"
    table_path = Path(f"{args.out_prefix}.txt")
    image_path = Path(f"{args.out_prefix}.pgm")
    write_attention_table(bag.coords, weights, table_path)
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
    data.add_argument("--data", help="dataset directory holding manifest.tsv "
                      f"(default ${DATA_ROOT_ENV}; eval of a report defaults "
                      "to its recorded manifest)")
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
    p.add_argument("--splits", default="600,150,150",
                   help="train,val,test slide counts (default 600,150,150)")
    p.add_argument("--dim", type=int, default=32, help="feature dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size-factor", type=float, default=0.1,
                   help="bag-size scale (1.0 = 68..1187 instances)")
    p.add_argument("--noise-sigma", type=float, default=0.7)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("consensus-stats", parents=[data],
                       help="consensus mix of a manifest")
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
    p.add_argument("--points", help='";"-separated grid points: (alpha,beta) '
                   'for multitask, e.g. "(1,0);(1,10)", or (NC,HEC,HOC) for '
                   'weighted, e.g. "(1,1,1);(4,3,1)" (default: six built-in points)')
    p.add_argument("--out", help="write the table here as well")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", parents=[data, stats],
                       help="evaluate a report or parameter archive")
    p.add_argument("target", help="run report (.txt) or parameter archive (.npz)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--compare", help="second report/archive for a paired "
                   "permutation test")
    p.add_argument("--statistic", choices=PERMUTATION_STATISTICS,
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
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
