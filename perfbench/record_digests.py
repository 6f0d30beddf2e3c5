"""Record the sha256 of every job's report on the default seed.

Run from the root of a checkout, at the commit whose reports are the
reference:

    python3 perfbench/record_digests.py

Each job must exit 0 and keep its report invariants; the digests go to
``perfbench/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    cli = run.import_package()
    digests = {}
    for name in run.WORKLOADS:
        with run.inputs(name, run.DEFAULT_SEED) as workload:
            for job in workload.jobs:
                o = run.run_job(cli, job)
                bad = [f"exit code {o.code}: {o.error}"] if o.code != 0 else job.check(json.loads(o.stdout)["results"])
                if bad:
                    sys.exit(f"{name}: {job.label}: {'; '.join(bad)}")
                digests[run.digest_key(name, job)] = hashlib.sha256(o.stdout.encode()).hexdigest()
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
