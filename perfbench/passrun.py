"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/passrun.py '<json options>'

Options: workload, seed, pass_index, t_spawn (time.monotonic() just before
the interpreter was started), trace, full_check, setup_only, out_dir.
Prints one JSON line: set-up time, per-phase timings (wall, and rescaled to
the reference speed of workloads.calibrate), peak RSS, kernel node counts,
checked/failed operation counts and, when traced, the per-layer summary of
the spans.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time


class NodeCounter:
    """Kernel node counts, read from the search module's status records.

    Every search run creates one `search._Status`; a subclass registers each
    instance so their node counts and budget exhaustion can be summed after
    the pass. Without such a class the counts read 0.
    """

    def __init__(self, search):
        self.statuses: list = []
        base = getattr(search, "_Status", None)
        if base is not None:
            registry = self.statuses

            class Counted(base):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    registry.append(self)

            search._Status = Counted

    def nodes(self) -> int:
        return sum(s.nodes for s in self.statuses)

    def inconclusive(self) -> int:
        return sum(not s.exhausted for s in self.statuses)


def main() -> int:
    opts = json.loads(sys.argv[1])
    t_spawn = opts["t_spawn"]
    src = os.path.abspath("src")
    import rainbow_lab
    import rainbow_lab.cli  # noqa: F401  (binds rainbow_lab.cli)

    if not os.path.abspath(rainbow_lab.__file__).startswith(src + os.sep):
        print(f"rainbow_lab imported from {rainbow_lab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    counter = NodeCounter(rainbow_lab.search)
    tracer = Tracer() if opts["trace"] else None
    if tracer is not None:
        tracer.install(rainbow_lab)
    wl = workloads.WORKLOADS[opts["workload"]](opts["seed"], rainbow_lab)
    state = wl.prepare()
    setup_s = time.monotonic() - t_spawn
    calib = sorted(workloads.calibrate() for _ in range(3))[1]
    result = {
        "setup_s": setup_s,
        "setup_ref_s": workloads.at_reference_speed(setup_s, calib),
        "inputs": wl.inputs if opts["pass_index"] == 0 else None,
    }
    if opts["setup_only"]:
        print(json.dumps(result))
        return 0

    tmpdir = os.path.join(opts["out_dir"], f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    out = workloads.Pass()
    try:
        wl.run(state, out, tmpdir, opts["full_check"], opts["pass_index"])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result.update(
        phases=out.phases,
        work_s=sum(p["wall"] for p in out.phases.values()),
        work_ref_s=sum(p["ref"] for p in out.phases.values()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        nodes=counter.nodes(),
        inconclusive=counter.inconclusive(),
        attempted=out.attempted,
        failures=out.failures[:20],
        failed=len(out.failures),
        digests=out.digests,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        path = os.path.join(opts["out_dir"], f"spans-{opts['workload']}-{opts['pass_index']}.tsv.gz")
        tracer.write(path)
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
