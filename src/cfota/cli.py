"""Command-line interface: mse-sweep, train, fronthaul, validate-config."""

import argparse
import sys

from . import accounting, runner


def _add_common(parser):
    parser.add_argument("-c", "--config", required=True,
                        help="scenario config file (key = value lines)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for independent seeds")


def _load(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"master_seed = {args.seed}")
    if args.out is not None:
        overrides.append(f"out = {args.out}")
    if getattr(args, "grid", None) is not None:
        overrides.append(f"sweep_dbm = {args.grid}")
    return runner.load_config(args.config, overrides=overrides)


def _emit(rows, cfg):
    if not cfg.out:
        raise runner.ValidationError("no output path: set 'out' or pass --out")
    runner.emit_csv(rows, cfg.out, cfg.n_groups)
    print(f"wrote {len(rows)} rows to {cfg.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cfota",
        description="Over-the-air federated learning simulator for "
                    "cell-free massive MIMO uplinks")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("mse-sweep",
                           help="aggregation MSE versus transmit power budget")
    _add_common(sweep)
    sweep.add_argument("--grid", default=None,
                       help="comma-separated P_max grid in dBm "
                            "(overrides sweep_dbm)")

    train = sub.add_parser("train", help="federated training over the channel")
    _add_common(train)

    fronthaul = sub.add_parser("fronthaul",
                               help="fronthaul signaling counts per level")
    _add_common(fronthaul)
    fronthaul.add_argument("--rounds-per-block", type=int, default=1,
                           help="training rounds per coherence block")

    validate = sub.add_parser("validate-config", help="check a config file")
    _add_common(validate)

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "validate-config":
            print("config OK")
            return 0
        if args.command == "mse-sweep":
            rows = runner.run_mse_sweep(cfg, threads=args.threads)
            _emit(rows, cfg)
            return 0
        if args.command == "train":
            rows = runner.run_fl_training(cfg, threads=args.threads)
            _emit(rows, cfg)
            return 0
        # fronthaul
        for level in (1, 2, 3):
            rep = accounting.fronthaul_scalars(
                level, cfg.tau_p, cfg.tau_u, cfg.n_ap_antennas, cfg.n_aps,
                cfg.n_groups, cfg.n_devices)
            print(f"level {level}: pilot/data {rep.pilot_data_scalars}, "
                  f"combiners {rep.combiner_scalars}, "
                  f"statistics {rep.statistics_display()}")
        pick = accounting.cheaper_level(cfg.tau_u, cfg.n_ap_antennas,
                                        cfg.n_groups, args.rounds_per_block)
        print(f"cheaper recurring fronthaul at C={args.rounds_per_block}: "
              f"{pick.name}")
        return 0
    except (runner.ParseError, runner.ValidationError, runner.BadMagic,
            runner.TruncatedFile, runner.LabelOutOfRange, runner.IoError,
            FileNotFoundError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
