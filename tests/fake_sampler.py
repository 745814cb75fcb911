#!/usr/bin/env python3
"""External-sampler test double speaking the one-shot JSON-lines protocol.

Reads one request object from stdin and answers on stdout. The mode flag
selects well-behaved and misbehaving personalities so every adapter error
path can be exercised from tests.
"""
import argparse
import json
import sys
import time

MODES = ("exact", "ties", "allones", "zeros", "badjson", "empty", "short", "sleep", "fail")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=MODES, default="exact")
    args = parser.parse_args()

    request = json.loads(sys.stdin.readline())
    n = request["n"]

    if args.mode == "fail":
        print("synthetic failure", file=sys.stderr)
        sys.exit(3)
    if args.mode == "sleep":
        time.sleep(30)
    if args.mode == "badjson":
        print("this is not json")
        return
    if args.mode == "empty":
        print(json.dumps({"samples": []}))
        return
    if args.mode == "zeros":
        print(json.dumps({"samples": [[0] * n]}))
        return
    if args.mode == "short":
        print(json.dumps({"samples": [[1] * (n - 1)]}))
        return
    if args.mode == "allones":
        print(json.dumps({"samples": [[1] * n]}))
        return

    # exact and ties: loop back through the in-process enumerator
    from qesa import ising

    model = ising.model_from_request(request)
    best = [int(v) for v in ising.solve_exact(model).best]
    if args.mode == "ties":
        # a read with spin 0 flipped, then the ground state's mirror image and
        # the ground state itself (equal energies when every field is zero)
        flipped = [-best[0]] + best[1:]
        print(json.dumps({"samples": [flipped, [-v for v in best], best]}))
        return
    print(json.dumps({"samples": [best]}))


if __name__ == "__main__":
    main()
