"""Command-line interface: mse-sweep, train, fronthaul, validate-config."""

import argparse
import sys

from . import CfotaError, accounting, runner


def _add_config(parser):
    parser.add_argument("-c", "--config", required=True,
                        help="scenario config file (key = value lines)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")


def _add_run(parser):
    """The config options plus those of the verbs that run seeds into a CSV."""
    _add_config(parser)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for independent seeds; more than 1 is slower today")


def _load(args):
    if getattr(args, "threads", 1) < 1:
        raise runner.ValidationError(f"--threads={args.threads} must be >= 1")
    if getattr(args, "rounds_per_block", 1) < 1:
        raise runner.ValidationError(
            f"--rounds-per-block={args.rounds_per_block} must be >= 1")
    overrides = list(args.overrides)
    if getattr(args, "seed", None) is not None:
        overrides.append(f"master_seed = {args.seed}")
    if getattr(args, "out", None) is not None:
        overrides.append(f"out = {args.out}")
    if getattr(args, "grid", None) is not None:
        overrides.append(f"sweep_dbm = {args.grid}")
    return runner.load_config(args.config, overrides=overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cfota",
        description="Over-the-air federated learning simulator for "
                    "cell-free massive MIMO uplinks")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("mse-sweep",
                           help="aggregation MSE versus transmit power budget")
    _add_run(sweep)
    sweep.add_argument("--grid", default=None,
                       help="comma-separated P_max grid in dBm "
                            "(overrides sweep_dbm)")

    train = sub.add_parser("train", help="federated training over the channel")
    _add_run(train)

    fronthaul = sub.add_parser("fronthaul",
                               help="fronthaul signaling counts per level")
    _add_config(fronthaul)
    fronthaul.add_argument("--rounds-per-block", type=int, default=1,
                           help="training rounds per coherence block")

    validate = sub.add_parser("validate-config", help="check a config file")
    _add_config(validate)

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "validate-config":
            print("config OK")
            return 0
        if args.command in ("mse-sweep", "train"):
            if not cfg.out:
                raise runner.ValidationError("no output path: set 'out' or pass --out")
            run = runner.run_mse_sweep if args.command == "mse-sweep" else runner.run_fl_training
            rows = run(cfg, threads=args.threads)
            runner.emit_csv(rows, cfg.out, cfg.n_groups)
            print(f"wrote {len(rows)} rows to {cfg.out}")
            return 0
        # fronthaul
        for level in (1, 2, 3):
            pilot_data, combiners, statistics = runner.fronthaul_counts(cfg, level)
            print(f"level {level}: pilot/data {pilot_data}, combiners {combiners}, "
                  f"statistics {statistics}")
        pick = accounting.cheaper_level(cfg.tau_u, cfg.n_ap_antennas,
                                        cfg.n_groups, args.rounds_per_block)
        print(f"cheaper recurring fronthaul at C={args.rounds_per_block}: "
              f"{pick.name}")
        return 0
    except (CfotaError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
