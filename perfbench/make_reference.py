"""Regenerate reference_digests.json: the output digest of the first ops of
every workload at the reference seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good, and again whenever
workloads.py or oracle.py change (their hash is stored with the digests).
Every op is also checked as in a benchmark run; a failing op aborts.
"""

import json
import os
import sys

import workloads

SEED = 1
OPS = {"solve": 600, "wronskian": 300, "cli": 200}


def main() -> int:
    sys.path.insert(0, workloads.SRC)
    digests = {}
    for name, count in OPS.items():
        w = workloads.WORKLOADS[name](SEED)
        w.setup()
        digests[name] = []
        for i in range(count):
            inp = w.make_input(i)
            out = w.run(inp)
            problems = w.check(inp, out)
            if problems:
                sys.stderr.write("%s op %d: %s\n" % (name, i, problems))
                return 1
            digests[name].append(w.digest(out))
        print("%s: %d ops" % (name, count))
    ref = {"seed": SEED, "definitions": workloads.definitions_hash(), "digests": digests}
    with open(os.path.join(workloads.HERE, "reference_digests.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
