"""Command-line interface: mse-sweep, train, fronthaul, validate-config.

A run's values come from its config file and ``--set`` overrides only.
"""

import argparse
import sys

from . import CfotaError, accounting, runner


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cfota",
        description="Over-the-air federated learning simulator for "
                    "cell-free massive MIMO uplinks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("mse-sweep", "aggregation MSE versus transmit power budget"),
                       ("train", "federated training over the channel"),
                       ("fronthaul", "fronthaul signaling counts per level"),
                       ("validate-config", "check a config file")):
        verb = sub.add_parser(name, help=text)
        verb.add_argument("-c", "--config", required=True,
                          help="scenario config file (key = value lines)")
        verb.add_argument("--set", dest="overrides", action="append", default=[],
                          metavar="KEY=VALUE", help="override a config entry")
        if name == "fronthaul":
            verb.add_argument("--rounds-per-block", type=int, default=1,
                              help="training rounds per coherence block")

    args = parser.parse_args(argv)
    try:
        if args.command == "fronthaul" and args.rounds_per_block < 1:
            raise runner.ValidationError(
                f"--rounds-per-block={args.rounds_per_block} must be >= 1")
        cfg = runner.load_config(args.config, overrides=args.overrides)
        if args.command == "validate-config":
            print("config OK")
            return 0
        if args.command in ("mse-sweep", "train"):
            if not cfg.out:
                raise runner.ValidationError(
                    "no output path: set 'out' in the config or with --set out=PATH")
            run = runner.run_mse_sweep if args.command == "mse-sweep" else runner.run_fl_training
            rows = run(cfg)
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
