"""Record the reference outputs that every benchmark op is checked against.

Usage, from the repository root:

    python3 perfbench/record_reference.py [workload ...]

Runs every input the benchmark can reach (``workloads.UNIVERSE`` per
workload) once and stores its headline outputs in ``reference.json``.  Every
op must exit 0.  Re-record only when a change is meant to alter the outputs;
a performance change must pass against the reference as it stands.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main(names) -> int:
    run.prepare_environment()
    import follmer.cli
    import outputs
    import workloads

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    work = run.HERE / ".work" / "record"
    try:
        for name in names or sorted(workloads.WORKLOADS):
            recorded = {}
            t0 = time.perf_counter()
            for cycle in workloads.build(name, range(workloads.UNIVERSE), work):
                for op in cycle:
                    out = work / "out"
                    shutil.rmtree(out, ignore_errors=True)
                    code = run.invoke(follmer.cli.main, [op.command, "--config", op.config, "--out", str(out)])
                    if code != 0:
                        print(f"{name} {op.key}: exit code {code}", file=sys.stderr)
                        return 1
                    recorded[op.key] = outputs.headline(op.command, out)
            reference[name] = recorded
            print(f"{name}: {len(recorded)} ops in {time.perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
