"""Record the expected outputs of every pooled request into expected.json.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each request of each workload's pool once, from the root of the
checkout, and stores its exit code and the SHA-256 of its report bytes,
plus the pool digest and the verdict histogram of the pool.  It refuses
to record when a request exits with another code than expected or breaks
an answer theory predicts.  Run it only when the pool or the reports are
meant to change; every benchmark run checks against what it wrote.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main(argv) -> int:
    dreg = run.load_program()
    path = run.HERE / "expected.json"
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    os.chdir(run.ROOT)
    bad = 0
    for name in argv or sorted(workloads.BUILDERS):
        workload = workloads.BUILDERS[name](dreg.corpus)
        run.write_inputs(workload.pool)
        requests, outcomes, start = {}, [], time.perf_counter()
        for r in workload.pool:
            o = run.execute(dreg.cli.main, r)
            problems = run.check(r, o, {r.key: o.digest})
            if problems:
                bad += 1
                print(f"{r.key}: {'; '.join(problems)}", file=sys.stderr)
            requests[r.key] = [o.code, o.digest]
            outcomes.append(o)
        data["workloads"][name] = {"pool_digest": run.pool_digest(workload),
                                   "verdicts": run.verdict_histogram(outcomes),
                                   "requests": requests}
        print(f"{name}: {len(requests)} requests in {time.perf_counter() - start:.1f} s")
    if bad:
        print(f"{bad} requests failed; nothing recorded", file=sys.stderr)
        return 1
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    finally:
        shutil.rmtree(run.ROOT / workloads.WORK_DIR, ignore_errors=True)
