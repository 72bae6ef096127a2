"""Record the seed-0 error norms that the correctness gate compares against.

From the repository root:

    python3 perfbench/record_references.py [workload ...]

Solves every case of the named workloads (default: all) once, in the
generator's numbering, and merges the four table error norms per case
into ``perfbench/references.json``.  Run it only on a commit whose
numbers are trusted; the gate exists to catch later changes to them.
"""

from __future__ import annotations

import json
import sys

import run

if __name__ == "__main__":
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import gate
    import study
    from tracing import Tracer
    from workloads import WORKLOADS

    names = sys.argv[1:] or list(WORKLOADS)
    refs = gate.load_references() if gate.REFERENCES.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        tracer = Tracer(traced=False)
        exact = study.exact_fields(workload, tracer)
        with tracer:
            records = study.run_pass(workload, 0, exact, tracer)
        for rec in records:
            if "error" in rec:
                sys.exit(f"{rec['case']}: {rec['error']}")
            refs[rec["case"]] = rec["errors"]
            print(rec["case"], rec["errors"], rec["residuals"])
    with open(gate.REFERENCES, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")
