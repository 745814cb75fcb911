#!/usr/bin/env python3
"""Loop-back external sampler for the benchmark's ``external-n12`` workload.

It speaks qesa's one-shot JSON-lines protocol like ``tests/fake_sampler.py``
in ``exact`` mode: one request line on stdin, one reply line on stdout with
the exact ground state. The reply adds ``compute_s``, the time spent
rebuilding the model and solving it; everything else a call costs is
process spawn and start-up. ``qesa.ising.solve_external`` reads only
``samples``. Launch it with a ``PYTHONPATH`` that finds ``src/qesa``.
"""
import json
import sys
import time

from qesa import ising


def main():
    request = json.loads(sys.stdin.readline())
    t0 = time.perf_counter()
    result = ising.solve_exact(ising.model_from_request(request))
    compute_s = time.perf_counter() - t0
    print(json.dumps({"samples": [[int(v) for v in result.best]], "compute_s": compute_s}))


if __name__ == "__main__":
    main()
