"""Write perfbench/pins.json: the verify per-cell table and the sha256 of
every catalog output for the default seed.

The pins are what later commits are checked against, so regenerate them
only at a commit whose outputs are known to be right, and say so in the
change that does it.

Usage: python3 perfbench/make_pins.py
"""

import json

import checks
import run
import workloads


def main() -> None:
    package = run.load_knotforge()
    (verify,) = workloads.requests("verify", workloads.DEFAULT_SEED)
    rc, out, _ = run.call_cli(package.cli, verify.argv)
    assert rc == 0, rc
    pins = {"verify": checks.verify_table(out), "catalog": []}
    for request in workloads.requests("catalog", workloads.DEFAULT_SEED):
        rc, out, _ = run.call_cli(package.cli, request.argv)
        assert rc == 0, (rc, request.argv)
        pins["catalog"].append(checks.sha256(out))
    with open(run.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
