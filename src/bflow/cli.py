"""Command-line entry point: ingest, train, eval, sample, verify.

Configuration comes from a UTF-8 ``key = value`` file (one pair per line,
``#`` comments) plus ``--set key=value`` overrides; the resolved snapshot
is embedded in every checkpoint.  All commands taking ``--seed`` are
bit-reproducible, whatever the number of CPUs or ``OPENBLAS_NUM_THREADS``:
importing bflow runs numpy's OpenBLAS at one thread
(``numerics.use_one_blas_thread``).
"""

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import data, harness, training
from .numerics import Rng
from .schedule import sample_chain

# the run keys beside the model's: where the data live and the image shape
RUN_KEYS = {"dataset": str, "width": int, "height": int}
# every TrainConfig field, coerced to its declared type, plus the run keys
RUN_CONFIG_KEYS = {f.name: f.type for f in dataclasses.fields(training.TrainConfig)} | RUN_KEYS


def parse_config_text(text):
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _config_pair(line, f"line {lineno}")
            if key in seen:
                raise ValueError(f"line {lineno}: config key {key!r} already set on line {seen[key]}")
            out[key], seen[key] = value, lineno
    return out


def _config_pair(text, where):
    """(key, value) of one "key = value" pair, the value coerced to the
    key's type; errors name where, a config line or --set."""
    if "=" not in text:
        raise ValueError(f"{where}: expected key = value, got {text!r}")
    key, val = (part.strip() for part in text.split("=", 1))
    if key not in RUN_CONFIG_KEYS:
        raise ValueError(f"{where}: unknown config key {key!r}")
    kind = RUN_CONFIG_KEYS[key]
    try:
        value = tuple(int(v) for v in val.split(",") if v.strip()) if kind is tuple else kind(val)
    except ValueError as exc:
        raise ValueError(f"{where}: {key}: {exc}") from None
    return key, value


def load_run_config(path, overrides=()):
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config_text(fh.read())
    given = {}
    for item in overrides:
        key, cfg[key] = _config_pair(item, "--set")
        if key in given:
            raise ValueError(f"--set {item!r}: config key {key!r} already set by --set {given[key]!r}")
        given[key] = item
    return cfg


def train_config_from_run(cfg):
    fields = {k: v for k, v in cfg.items() if k not in RUN_KEYS}
    missing = [f.name for f in dataclasses.fields(training.TrainConfig)
               if f.default is dataclasses.MISSING and f.name not in fields]
    if missing:
        raise ValueError(f"missing required {'keys' if len(missing) > 1 else 'key'} {', '.join(map(repr, missing))}")
    return training.TrainConfig(**fields)


def _check_dataset(command, path, ds, config):
    """Exit unless the dataset at path holds items of the model's modality, D and K."""
    if not len(ds.items):
        raise SystemExit(f"{command}: dataset {path} holds no items")
    if (ds.modality, ds.D, ds.K) != (config.modality, config.D, config.K):
        raise SystemExit(
            f"{command}: dataset (modality {ds.modality}, D={ds.D}, K={ds.K}) does not match "
            f"the model (modality {config.modality}, D={config.D}, K={config.K})"
        )


def _load(command, what, load, *args):
    """load(*args); a bad file, output path or option value exits with a usage error naming it."""
    try:
        return load(*args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{command}: {what}: {getattr(exc, 'strerror', None) or exc}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args):
    if args.dim < 0:
        raise SystemExit(f"ingest: --dim must be >= 1, got {args.dim}")
    source = Path(args.input)
    if args.alphabet:
        alphabet = _load("ingest", f"--alphabet {args.alphabet}", data.load_alphabet, args.alphabet)
        if args.bins and args.bins != len(alphabet):
            raise SystemExit(f"ingest: --bins {args.bins}: the alphabet {args.alphabet} fixes K={len(alphabet)}")
        text = _load("ingest", f"--input {args.input}", source.read_text, "utf-8")
        if text.endswith("\n"):
            text = text[:-1]
        if "\n" not in text and not args.dim:
            raise SystemExit("ingest: --dim is required for text without line breaks")
        ds = _load("ingest", f"--input {args.input}", data.ingest_text, text, alphabet, args.dim)
        if args.dim and args.dim != ds.D:  # lines fix D; --dim only chunks unbroken text
            raise SystemExit(f"ingest: --dim {args.dim}: the lines of {args.input} hold {ds.D} symbols each")
        if ds.modality != args.modality:
            raise SystemExit(f"ingest: --alphabet ingests text as {ds.modality} data, not {args.modality}")
    else:
        if args.modality != "continuous":
            if args.bins < 2:
                raise SystemExit("ingest: --bins is required for discretised/discrete byte data")
        elif args.bins:
            raise SystemExit(f"ingest: --bins {args.bins}: continuous data takes no class count")
        if not args.dim:
            raise SystemExit("ingest: --dim is required for byte data")
        raw = _load("ingest", f"--input {args.input}", source.read_bytes)
        ds = _load("ingest", f"--input {args.input}", data.ingest_bytes, raw, args.dim, args.modality, args.bins)
    _load("ingest", f"--output {args.output}", data.save_dataset, args.output, ds)
    print(f"wrote {args.output}: modality={ds.modality} D={ds.D} K={ds.K} items={ds.items.shape[0]}")
    return 0


def cmd_train(args):
    cfg = _load("train", f"config {args.config}", load_run_config, args.config, args.set or ())
    if "dataset" not in cfg:
        raise SystemExit("train: config must name a dataset")
    config = _load("train", f"config {args.config}", train_config_from_run, cfg)
    dataset_path = _resolve(cfg["dataset"], args.config)
    ds = _load("train", f"dataset {dataset_path}", data.load_dataset, dataset_path)
    _check_dataset("train", dataset_path, ds, config)
    _load("train", f"--out {args.out}", lambda: os.makedirs(args.out, exist_ok=True))
    result = training.train(Rng(config.seed), data.model_items(ds), config)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    training.save_checkpoint(ckpt_path, result, run_config=cfg)
    with open(os.path.join(args.out, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(training.history_to_csv(result.history))
    final_train = np.mean([h[1] for h in result.history[-min(50, len(result.history)):]])
    eval_losses = [h[2] for h in result.history if h[2] is not None]
    print(f"final train loss (50-step mean): {final_train:.6g}")
    print(f"final eval loss: {eval_losses[-1]:.6g}" if eval_losses else "final eval loss: n/a")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(args):
    result, _ = _load("eval", f"checkpoint {args.checkpoint}", training.load_checkpoint, args.checkpoint)
    ds = _load("eval", f"dataset {args.dataset}", data.load_dataset, args.dataset)
    config = result.config
    _check_dataset("eval", args.dataset, ds, config)
    n_values = _load("eval", f"--n {args.n}", lambda: tuple(int(v) for v in args.n.split(",") if v.strip()))
    _load("eval", f"--n {args.n}", training.check_eval_counts, n_values)
    _load("eval", f"--passes {args.passes}", training.check_eval_counts, (), args.passes)
    predictor = training.ema_predictor(result)
    items = data.model_items(ds)
    rows = training.evaluate(Rng(args.seed), predictor, config, items, n_values=n_values, passes=args.passes)
    print(training.format_eval_table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(training.eval_rows_to_csv(rows))
        print(f"csv: {args.out}")
    return 0


def _sample_shape(config_snapshot, D):
    width = config_snapshot.get("width", 0)
    height = config_snapshot.get("height", 0)
    if width and height and width * height == D:
        return width, height
    side = int(round(np.sqrt(D)))
    if side * side == D:
        return side, side
    return D, 1


def write_pgm(path, values, width, height):
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.asarray(values, dtype=np.uint8).tobytes())


def cmd_sample(args):
    if args.steps < 1:
        raise SystemExit(f"sample: --steps must be >= 1, got {args.steps}")
    if args.count < 0:
        raise SystemExit(f"sample: --count must be >= 0, got {args.count}")
    result, header = _load("sample", f"checkpoint {args.checkpoint}", training.load_checkpoint, args.checkpoint)
    config = result.config
    ops = training.OPS[config.modality]
    alphabet = None
    if args.alphabet:
        alphabet = _load("sample", f"--alphabet {args.alphabet}", data.load_alphabet, args.alphabet)
    # rendering an empty batch checks the alphabet before any sampling
    _load("sample", f"--alphabet {args.alphabet}", ops.render, config.flow, np.empty((0, config.D)), alphabet)
    predictor = training.ema_predictor(result)
    _load("sample", f"--out {args.out}", lambda: os.makedirs(args.out, exist_ok=True))
    if args.count == 0:
        return 0
    # one call draws every sample, over the modality's chain ops: sample idx
    # from stream idx of the seed
    streams = [Rng(args.seed).split(idx) for idx in range(args.count)]
    samples = sample_chain(ops, streams, predictor, config.flow, args.steps)
    w, h = _sample_shape(header.get("run_config", {}), config.D)
    for idx, content in enumerate(ops.render(config.flow, samples, alphabet)):
        text = isinstance(content, str)  # else PGM grey levels
        path = os.path.join(args.out, f"sample_{idx:03d}.{'txt' if text else 'pgm'}")
        if text:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            write_pgm(path, content, w, h)
        print(path)
    return 0


def seed_or_range(text):
    """--seed for verify: one seed, or an inclusive range A..B of seeds."""
    lo, dots, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi) + 1) if dots else int(lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a seed or a range A..B, got {text!r}") from None
    if dots and not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def cmd_verify(args):
    sweep = isinstance(args.seed, range)
    _load("verify", f"--filter {args.filter}", harness.select_properties, args.filter)
    # opened before any property runs, so a bad path costs no run
    report = (_load("verify", f"--report {args.report}", lambda: open(args.report, "w", encoding="utf-8"))
              if args.report else contextlib.nullcontext())
    with report as fh:
        runs = [harness.run_all(seed, name_filter=args.filter) for seed in (args.seed if sweep else [args.seed])]
        if fh is not None:
            fh.writelines(r.to_line() + "\n" for reports in runs for r in reports)
    by_property = list(zip(*runs))  # each property's reports, one per seed
    for reports in by_property:
        if not sweep:
            print(reports[0].summary())
            continue
        worst = max(reports, key=lambda r: r.statistic / r.tolerance)
        failed = sum(not r.passed for r in reports)
        print(f"[{'FAIL' if failed else 'PASS'}] {worst.property_id:<34} worst stat/tol="
              f"{worst.statistic / worst.tolerance:.3e} at seed {worst.seed}, {failed}/{len(reports)} seeds failed")
    if args.report:
        print(f"report: {args.report}")
    passed = sum(all(r.passed for r in reports) for reports in by_property)
    over = f" at every seed of {args.seed.start}..{args.seed.stop - 1}" if sweep else ""
    print(f"{passed}/{len(by_property)} properties passed{over}")
    return 0 if passed == len(by_property) else 1


def _resolve(path, config_path):
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path)


def build_parser():
    p = argparse.ArgumentParser(prog="bflow", description="Bayesian-flow generative modelling")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="convert raw text/bytes into a dataset file")
    pi.add_argument("--modality", required=True, choices=("continuous", "discretised", "discrete"))
    pi.add_argument("--input", required=True)
    pi.add_argument("--output", required=True)
    pi.add_argument("--alphabet", help="alphabet file for text ingestion (one symbol per line)")
    pi.add_argument("--bins", type=int, default=0, help="bin/class count K")
    pi.add_argument("--dim", type=int, default=0, help="values per item (or chunk length for raw text)")
    pi.set_defaults(func=cmd_ingest)

    pt = sub.add_parser("train", help="train a model from a config file")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out", default="run")
    pt.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("eval", help="loss table for a checkpoint on a dataset")
    pe.add_argument("--checkpoint", required=True)
    pe.add_argument("--dataset", required=True)
    pe.add_argument("--n", default="10,25,50,100", help="comma-separated step counts")
    pe.add_argument("--passes", type=int, default=2)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", help="also write the table as CSV")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sample", help="generate samples from a checkpoint")
    ps.add_argument("--checkpoint", required=True)
    ps.add_argument("--count", type=int, default=1)
    ps.add_argument("--steps", type=int, default=100)
    ps.add_argument("--out", default="samples")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--alphabet", help="decode discrete samples as text with this alphabet")
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify", help="run the analytic-property verification suite")
    pv.add_argument("--seed", type=seed_or_range, default=7, help="a seed, or an inclusive range A..B of seeds")
    pv.add_argument("--filter", help="run only properties whose id contains this substring")
    pv.add_argument("--report", help="write line-delimited records here")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("toys", help="write the bundled toy datasets into a directory")
    pg.add_argument("--out", default="toys")
    pg.set_defaults(func=lambda a: (print("\n".join(f"{k}: {v}" for k, v in data.write_toys(a.out).items())), 0)[1])

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
