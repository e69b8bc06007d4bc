"""Record the golden answers that every benchmark run is checked against.

    python3 perfbench/record_golden.py

Runs each workload once, in full and smoke size, in job-list order, and
rewrites golden.json beside this file.  Corpus answers per lattice are
stored as digests; every other answer is stored as it is.  Record only
from a commit whose answers are known to be right: a run checks the
program against this file, not against itself.
"""

import json
import sys

from run import HERE, WORKLOADS, use_sources


def record(workload, smoke):
    from workloads import SETUP, Api, digest, summarise

    api = Api()
    jobs = SETUP[workload](api, smoke)
    state, answers = {}, {}
    for name, fn in jobs:
        answers[name] = json.loads(json.dumps(fn(api, state)[0]))
    stored = {name: digest(a) if workload == "corpus" and name != "enumerate" else a
              for name, a in answers.items()}
    return {"summary": summarise(workload, answers), "answers": stored}


def main():
    use_sources()
    golden = {size: {w: record(w, size == "smoke") for w in WORKLOADS}
              for size in ("smoke", "full")}
    with open(HERE / "golden.json", "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    for size, per in golden.items():
        for w, g in per.items():
            print(size, w, json.dumps(g["summary"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
