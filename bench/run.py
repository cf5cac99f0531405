#!/usr/bin/env python3
"""End-to-end benchmark of the `sympineq` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every request of the workload's seeded list goes through
`sympineq.cli.main(argv)` in this one process, serially.  Costs are process
CPU time divided by the CPU time of a fixed reference kernel (pure-Python
rational arithmetic, see `ref_kernel`) run just before each request, so a
machine that drifts in speed moves both alike.  The list is served in whole
rounds until the time is up; each request's cost is its median over rounds.
Reports of the first round are checked by `checks.py`; later rounds must
print the same bytes.  The last line of stdout is one JSON object with the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
"""

from __future__ import annotations

import os

# One BLAS thread: an idle OpenBLAS helper thread spins and bills the
# process CPU clock.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# a request's ref is the median of the kernel samples in this window around it
REF_WINDOW = 8
SETUP_CODE = ("import time, sympineq.cli; sympineq.cli.build_parser(); "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def ref_kernel() -> Fraction:
    """The unit of cost: a fixed exact-rational polynomial product, the same
    kind of arithmetic as the program's exact layers, sharing no code with
    it.  1.5-3.5 ms on a 2-vCPU x86-64 VM, depending on its load."""
    acc = [Fraction(1)]
    for i in range(1, 13):
        a = Fraction(i, 7)
        factor = (Fraction(1), a, a * a / 2)
        out = [Fraction(0)] * (len(acc) + 2)
        for p, u in enumerate(acc):
            for q, v in enumerate(factor):
                out[p + q] += u * v
        acc = out
    return acc[len(acc) // 2]


REF_VALUE = ref_kernel()


def ref_sample() -> float:
    t0 = time.process_time()
    value = ref_kernel()
    dt = time.process_time() - t0
    if value != REF_VALUE:
        raise RuntimeError("reference kernel changed its result")
    return dt


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median wall time from spawning an interpreter until `sympineq.cli` is
    imported and its parser built (numpy's import included).  One unmeasured
    start first compiles the bytecode."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.strip()) - t0)
    return statistics.median(samples)


def clear_caches() -> None:
    """Empty every memoized function of the program, so each round computes
    what a fresh process per CLI call would."""
    for name, mod in list(sys.modules.items()):
        if name == "sympineq" or name.startswith("sympineq."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the run keeps going; the check reports it
            traceback.print_exc(file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def local_refs(samples: list[float]) -> list[float]:
    """samples[i] ran just before request i (the last one after the end)."""
    half = REF_WINDOW // 2
    return [statistics.median(samples[max(0, i - half + 1): i + half + 1])
            for i in range(len(samples) - 1)]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def serve_round(cli, requests, rnd: int, tracer, report_bytes):
    """One pass over the list: per request its CPU seconds and its
    (code, stdout, stderr), and the kernel samples around the requests."""
    times, samples, outputs = [], [], []
    for i, req in enumerate(requests):
        gc.collect()
        samples.append(ref_sample())
        if tracer:
            tracer.round, tracer.request = rnd, i
            sid = tracer.open("cli.main")
        t0 = time.process_time()
        code, out, err = call_cli(cli, req.argv)
        times.append(time.process_time() - t0)
        if tracer:
            tracer.close(sid)
            report_bytes[(rnd, i)] = len(out.encode())
        outputs.append((code, out, err))
    samples.append(ref_sample())
    return times, samples, outputs


def check_round(requests, outputs, rng) -> list[tuple]:
    """(code, stdout, problem) per request; problem is None when the report
    passes its check."""
    first = []
    for req, (code, out, err) in zip(requests, outputs):
        try:
            report = json.loads(out) if out else None
        except json.JSONDecodeError:
            report = None
        problem = checks.check(req, code, report, rng)
        if problem and err:
            problem += f" | stderr: {err.strip().splitlines()[-1]}"
        if problem:
            label = f"known fault: {req.known_fault}" if req.known_fault else "WRONG"
            print(f"{label}: {' '.join(req.argv)}: {problem}", file=sys.stderr)
        first.append((code, out, problem))
    return first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sympineq" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'sympineq'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s = measure_setup()
    from sympineq import cli  # noqa: E402

    tag = f"{args.workload}-seed{args.seed}"
    in_dir = OUT / "inputs" / tag
    shutil.rmtree(in_dir, ignore_errors=True)
    requests = workloads.build(args.workload, args.seed, in_dir)
    n_req = len(requests)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    gc.collect()
    gc.freeze()
    cpu = []    # per round, per request: CPU seconds
    refs = []   # per round: kernel samples
    first = []  # per request: (code, stdout, problem) of round 0
    report_bytes: dict[tuple[int, int], int] = {}
    correct = True
    attempted = failed = 0
    start = time.monotonic()
    longest = 0.0
    while True:
        rnd = len(cpu)
        round_start = time.monotonic()
        clear_caches()
        times, samples, outputs = serve_round(cli, requests, rnd, tracer, report_bytes)
        longest = max(longest, time.monotonic() - round_start)
        cpu.append(times)
        refs.append(samples)
        if rnd == 0:
            first = check_round(requests, outputs,
                                random.Random(f"check/{args.workload}/{args.seed}"))
            correct = not any(problem and not req.known_fault
                              for req, (_, _, problem) in zip(requests, first))
        for i, (code, out, _) in enumerate(outputs):
            if (code, out) != first[i][:2]:
                first[i] = (*first[i][:2], "output differs between rounds")
                correct = False
        attempted += n_req
        failed += sum(1 for _, _, problem in first if problem)
        if time.monotonic() - start + longest > args.seconds:
            break
    measured_s = time.monotonic() - start
    gc.unfreeze()
    if tracer:
        tracer.uninstall()

    rounds = len(cpu)
    ref_rows = [local_refs(s) for s in refs]
    cost = [statistics.median(cpu[k][i] / ref_rows[k][i] for k in range(rounds))
            for i in range(n_req)]
    cpu_med = [statistics.median(cpu[k][i] for k in range(rounds))
               for i in range(n_req)]
    ref_s = statistics.median(s for row in refs for s in row)

    OUT.mkdir(exist_ok=True)
    with (OUT / f"{tag}-trace{args.trace}.rows.jsonl").open("w") as fh:
        for req, c, s, (_, _, problem) in zip(requests, cost, cpu_med, first):
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "command": req.argv[0], "params": req.params,
                "cost_ref": c, "cpu_s": s, "passed": problem is None,
                "rounds": rounds}) + "\n")
    shutil.rmtree(in_dir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed}: {n_req} requests x {rounds} rounds "
          f"in {measured_s:.1f} s; batch {sum(cpu_med):.3f} CPU s = "
          f"{sum(cost):.1f} ref; ref {ref_s * 1e3:.3f} ms", file=sys.stderr)

    if tracer:
        tracer.write(OUT / f"{tag}.spans.jsonl")
        values = tracer.layer_metrics(lambda k, i: ref_rows[k][i], report_bytes,
                                      rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.METRICS.items()}
    else:
        metrics = {
            "batch_ref": {"value": sum(cost), "unit": "ref"},
            "request_ref.p50": {"value": statistics.median(cost), "unit": "ref"},
            "request_ref.p90": {"value": p90(cost), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
