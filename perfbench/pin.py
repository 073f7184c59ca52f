"""Write pins.json: every operation's parsed output at the default seed.

    python3 perfbench/pin.py

Outputs are pure functions of the configs and seed, and the benchmark
counts any pinned value that changes as a failed operation.  Re-pin only
for a change that alters results on purpose, and say why in its record.
Each pinned output must first pass its semantic check.  Outputs that do not
depend on the seed (predict, feller, ito) are pinned under "*" and checked
at every seed; the others under the default seed.
"""

import json
import sys

import run
from workloads import WORKLOADS


def main():
    cli = run.load_cli()
    pins = {}
    for workload in WORKLOADS:
        table = pins.setdefault(workload, {})
        session = run.Session(cli, workload, run.DEFAULT_SEED)
        try:
            for op in session.ops:
                _, result, error = session.run(op, run.WORKERS)
                session.verify(op, result, error)
                table[op.name] = {str(run.DEFAULT_SEED) if op.seeded else "*": result}
        finally:
            session.close()
        if session.failures:
            sys.exit(f"{workload}: {session.failures}")
        print(f"{workload}: pinned {len(session.ops)} operations", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
