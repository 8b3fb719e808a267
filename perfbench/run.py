"""Run one decspace benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fibre-checks --seed 1 --seconds 36 --trace 0

Run it from the root of a decspace checkout; the library is imported from
``src/`` there.  One process, no threads:

1. set-up: import decspace, pick the seed's inputs and build every space
   (``setup_s``, timed from the start of this script);
2. the cold pass: every operation of the workload once, with the module-level
   caches empty;
3. passes on freshly built spaces until ``--seconds`` have gone by since the
   cold pass began: two more cold passes, each after every module-level
   ``lru_cache`` of decspace has been emptied (``cold_s`` is the median of
   the three), between warm passes, at least three of them (``run_s`` is
   their median).  Building is not part of a pass's time.

Pass times are reported at a fixed reference speed of the machine: every
stretch of about ``CHUNK_S`` seconds of operations is multiplied by
``REFERENCE_KERNEL_S`` over the time of a fixed pure-Python kernel measured
right before and after it (see ``kernel_s``).  ``setup_s`` is raw seconds.
The raw pass seconds are printed on the lines before the result.

Every pass's outputs are checked against values computed independently of
decspace.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the run records spans and work counts and the metrics are the
per-layer ones; the spans go to ``perfbench/traces/<workload>.tsv.gz``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_WARM = 3
MIN_WARM_TRACED = 4  # two traced and two untraced passes, for the overhead
COLD_PASSES = 3

# The kernel's time at the reference speed.  On the shared 2-CPU Xeon
# (2.1 GHz) VM the benchmark was written on it took 15-27 ms, so reported
# times are close to the raw seconds there.
REFERENCE_KERNEL_S = 0.025
KERNEL_ROUNDS = 14
CHUNK_S = 0.5
PERMUTATIONS = tuple(itertools.permutations(range(6)))


def kernel_s() -> float:
    """Time a fixed pure-Python kernel of the kind of work decspace does.

    It squares every permutation of six points, buckets them by the square,
    merges each bucket with a union-find pass and sorts the buckets by
    ``repr``.  On a shared machine the speed of the processor drifts by a
    quarter within minutes; the kernel slows down in step with decspace, so
    dividing by its time removes the drift.  The collector is off while it
    runs, so the size of the program's heap does not enter into it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(KERNEL_ROUNDS):
            buckets: dict = {}
            for p in PERMUTATIONS:
                buckets.setdefault(tuple(p[i] for i in p), []).append(p)
            parent = {p: p for p in PERMUTATIONS}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for members in buckets.values():
                for a, b in zip(members, members[1:]):
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
            sorted(buckets, key=repr)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def module_caches() -> list:
    """Every module-level ``functools.lru_cache`` of decspace, found by its
    ``cache_clear`` method."""
    found = {
        id(obj): obj
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "decspace" and mod
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    return list(found.values())


def load_decspace():
    """Import decspace from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import decspace
        import decspace.cli
        import decspace.coalgebra
        import decspace.gallery
        import decspace.groupoids
        import decspace.simplicial
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import decspace from {SRC}: {exc}")
    if not os.path.abspath(decspace.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: decspace was imported from {decspace.__file__}, not {SRC}")
    return types.SimpleNamespace(
        cli=decspace.cli,
        coalgebra=decspace.coalgebra,
        gallery=decspace.gallery,
        groupoids=decspace.groupoids,
        simplicial=decspace.simplicial,
    )


class Runner:
    """Runs passes of one workload and tallies operations and problems."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.kernels: list = []

    def run_pass(self, inputs) -> tuple[float, float]:
        """Time one pass over ``inputs``, then check its outputs.

        Returns the pass's time in seconds and at the reference speed.  The
        kernel runs before the first operation and again whenever
        ``CHUNK_S`` seconds of operations have gone by since it last ran;
        each stretch of operations is scaled by the kernel times around it.
        """
        ops = self.workload.operations(inputs)
        results: dict = {}
        errors: dict = {}
        raw = ref = 0.0
        gc.collect()
        kernel = kernel_s()
        t0 = time.perf_counter()
        for i, (name, fn) in enumerate(ops):
            try:
                results[name] = fn()
            except Exception as exc:  # an operation that raises counts as failed
                errors[name] = exc
            stretch = time.perf_counter() - t0
            if stretch >= CHUNK_S or i == len(ops) - 1:
                after = kernel_s()
                raw += stretch
                ref += stretch * REFERENCE_KERNEL_S / (kernel * after) ** 0.5
                self.kernels.append(after)
                kernel = after
                t0 = time.perf_counter()
        self.attempted += len(ops)
        if errors:
            self.failed += len(errors)
            self.problems += [f"{name} raised {exc!r}" for name, exc in errors.items()]
        else:
            problems, failed = self.workload.check(results)
            self.failed += len(failed)
            self.problems += problems
        return raw, ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ds = load_decspace()
    sys.path.insert(0, HERE)
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ds, args.seed)
    runner = Runner(workload)

    workload.prepare()
    caches = module_caches()
    tracer = None
    if args.trace:
        # after prepare(), whose work depends on the seed, so counts do not
        tracer = tracing.Tracer(ds.groupoids.FiniteGroupoid, caches)
        tracer.install()
        setup_phase = tracer.begin("setup")
    inputs = workload.build()
    setup_s = time.perf_counter() - START

    window = time.perf_counter()
    if tracer:
        cold_phase = tracer.begin("cold")
    cold = [runner.run_pass(inputs)]
    last_cost = time.perf_counter() - window

    cold_passes = 1 if tracer else COLD_PASSES
    warm: list = []
    traced: list = []
    min_warm = MIN_WARM_TRACED if tracer else MIN_WARM
    while len(warm) + len(traced) < min_warm or (
        time.perf_counter() - window + last_cost <= args.seconds
    ):
        begun = time.perf_counter()
        # passes 0, 2 and 4 are cold, the others warm
        cold_this = len(cold) < cold_passes and len(warm) == len(cold)
        trace_this = tracer is not None and len(warm) >= len(traced)
        if tracer:
            if trace_this:
                tracer.install()
                tracer.begin("build")
            else:
                tracer.uninstall()
                tracer.begin("off")
        if cold_this:
            for cache in caches:
                cache.cache_clear()
        inputs = None  # let the previous pass's spaces go before building anew
        inputs = workload.build()
        if trace_this:
            phase = tracer.begin("warm" if not traced else "off")
            if not traced:
                warm_phase = phase
            traced.append(runner.run_pass(inputs))
        else:
            (cold if cold_this else warm).append(runner.run_pass(inputs))
        last_cost = time.perf_counter() - begun

    passes = len(cold) + len(warm) + len(traced)
    raw_run = statistics.median(t for t, _ in warm)
    print(
        f"{args.workload} seed {args.seed}: {passes} passes ({len(cold)} cold) of "
        f"{runner.attempted // passes} operations; raw seconds: setup {setup_s:.4f}, "
        f"cold {statistics.median(t for t, _ in cold):.4f}, run {raw_run:.4f}; "
        f"kernel median {statistics.median(runner.kernels):.5f} s"
    )
    if tracer:
        tracer.begin("off")
        tracer.uninstall()
        metrics = tracing.layer_metrics(
            setup_phase,
            cold_phase,
            warm_phase,
            statistics.median(t for t, _ in traced),
            raw_run,
            statistics.median(runner.kernels),
        )
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces", f"{args.workload}.tsv.gz")
        tracing.write_spans(path, (setup_phase, cold_phase, warm_phase), START)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cold_s": {"value": statistics.median(r for _, r in cold), "unit": "s"},
            "run_s": {"value": statistics.median(r for _, r in warm), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    for problem in runner.problems[:20]:
        print(f"WRONG: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not runner.problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
