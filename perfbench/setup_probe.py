#!/usr/bin/env python3
"""Set-up probe: what a fresh process pays before its first timed solve.

    python3 perfbench/setup_probe.py --workload NAME --seed N

It imports qesa, generates the workload's instances and runs one warm-up
solve, which fills the spin-table cache and initialises BLAS. The
benchmark times the whole process from outside; reference values are not
part of set-up.
"""
import argparse

import run


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    run.bootstrap()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.warm_up(workload.make_instances(args.seed), args.seed)


if __name__ == "__main__":
    main()
