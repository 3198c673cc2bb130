"""End-to-end and per-layer benchmark of mppsi.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mem-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, one fresh interpreter each

A workload run is a closed loop with one op in flight. It sets up (imports
mppsi, makes and parses every op's config, runs one checked warm-up op),
times a fixed number of ops, checks each op's output outside the timed
region, runs the workload's property check once, and prints one JSON object
as its last line of output. Every reported time is scaled to a reference
host speed by host probes timed next to it (see host_probe). With
``--trace 1`` every other op runs traced and the per-layer metrics are
printed instead of the end-to-end ones.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
NAMES = ("mem-wide", "net-mid", "audit-exhaustive")
MIN_OPS = 40  # the tail percentile needs at least ten ops beyond it
TAIL_BEYOND = 10
SETUP_CHILDREN = 2  # extra set-ups, each in a fresh interpreter
# What host_probe takes when the host runs Python at its reference speed.
# Changing it rescales every reported time, so it stays fixed.
PROBE_REF_S = 0.010
PROBES = 2  # host probes just before and just after each op, and after set-up


def ops_per_run(nominal_op_s: float, seconds: int) -> int:
    """Fixed for a given --seconds, so every run uses the same percentile."""
    return max(MIN_OPS, int(seconds / nominal_op_s))


def tail(latencies):
    """The highest order statistic with TAIL_BEYOND ops beyond it.

    Runs shorter than MIN_OPS (the --tiny test runs) report the maximum.
    """
    ordered = sorted(latencies)
    if len(ordered) < MIN_OPS:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def host_probe():
    """A fixed pure-Python loop: how fast the host runs Python right now.

    On a shared host that speed drifts within seconds by more than the
    bounds allow, so every reported time is scaled by PROBE_REF_S over the
    mean of the probes taken next to it, while no endpoint thread runs.
    """
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i
    return time.perf_counter() - start


def probes(count=PROBES):
    return [host_probe() for _ in range(count)]


def scale(probe_times):
    """Factor turning a time measured next to these probes into reference time."""
    return PROBE_REF_S / statistics.mean(probe_times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def set_up(workload, seed, n_ops, tracer, parse):
    """Everything before the first timed op; returns inputs and the warm-up's problems."""
    instances = workload.instances(seed, n_ops + 1)
    if tracer is None:
        configs = [parse(inst.text) for inst in instances]
    else:
        tracer.install()
        configs = []
        for index, inst in enumerate(instances):
            tracer.begin_op(index, "setup.parse")
            configs.append(parse(inst.text))
            tracer.end_op()
        tracer.uninstall()
    warm = attempt(workload, instances[0], configs[0])
    return instances, configs, warm["problems"]


def attempt(workload, inst, config, tracer=None, op_id=None):
    """Run one op between host probes, traced when a tracer is given; then check it.

    Neither the probes nor the check are timed or traced.
    """
    before = probes()
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
    try:
        timed = workload.op(config)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return {"problems": [f"op raised {exc!r}"]}
    finally:
        if tracer is not None:
            tracer.end_op()
            tracer.uninstall()
    probe_times = before + probes()
    problems, wire = workload.check(inst, config, timed.output)
    return {
        "latency": timed.latency, "wall": timed.wall, "probes": probe_times,
        "factor": scale(probe_times), "wire": wire, "problems": problems,
    }


def child_setup(args):
    """Set up in a fresh interpreter; its raw and scaled set-up time."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args):
    import dataclasses

    import workloads  # imports mppsi: part of set-up

    workload = workloads.WORKLOADS[args.workload]
    n_ops = ops_per_run(workload.nominal_op_s, args.seconds)
    if args.tiny:
        workload = dataclasses.replace(workload, shape=workloads.TINY_SHAPES[args.workload])
        n_ops = workloads.TINY_OPS
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    instances, configs, warm_problems = set_up(
        workload, args.seed, n_ops, tracer, workloads.parse
    )
    setup = {"raw_s": time.perf_counter() - PROCESS_START}
    setup["s"] = setup["raw_s"] * scale(probes(2 * PROBES))
    setup["failed"] = int(bool(warm_problems))
    if args.setup_only:
        return setup

    attempted, failed = 1, setup["failed"]
    problems = list(warm_problems)
    done, traced_done = [], []
    for index in range(1, n_ops + 1):
        traced = tracer is not None and index % 2 == 0
        op = attempt(workload, instances[index], configs[index], tracer if traced else None, index)
        op["op"] = index
        attempted += 1
        if op["problems"]:
            failed += 1
            problems.extend(f"op {index}: {p}" for p in op["problems"])
        else:
            (traced_done if traced else done).append(op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    property_problems = workload.prop(configs[0])
    setups = [setup]
    for _ in range(SETUP_CHILDREN):
        setups.append(child_setup(args))
        attempted += 1
        failed += setups[-1]["failed"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    raw = {
        "workload": args.workload, "seed": args.seed, "ops": done, "traced_ops": traced_done,
        "setups": setups, "problems": problems + property_problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1))

    def scaled_latency(ops):
        return statistics.median(op["latency"] * op["factor"] for op in ops)

    if tracer is not None:
        tracer.write(OUT / f"{stem}.trace.jsonl")
        values = tracing.layer_metrics(
            tracer, [op["op"] for op in traced_done], list(range(n_ops + 1))
        )
        values["trace.overhead_s"] = scaled_latency(traced_done) - scaled_latency(done)
        metrics = {
            name: metric(values[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()
        }
    else:
        all_ops = done + traced_done
        metrics = {
            "setup_s": metric(statistics.median(s["s"] for s in setups), "s"),
            "op_s_p50": metric(scaled_latency(all_ops), "s"),
            "op_s_tail": metric(tail([op["latency"] * op["factor"] for op in all_ops]), "s"),
            "ops_per_s": metric(
                len(all_ops) / sum(op["wall"] * op["factor"] for op in all_ops), "1/s"
            ),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "wire_kb_per_op": metric(statistics.median(op["wire"] for op in all_ops) / 1024, "KB"),
        }
    for line in (problems + property_problems)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    return {
        "correct": not property_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Every workload in its own fresh interpreter; a table, then their results."""
    results = {}
    for name in NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric_name, item in res["metrics"].items():
            print(f"  {metric_name:40s} {item['value']:.6g} {item['unit']}")
    return results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # --tiny: a few ops on tiny shapes, for the benchmark's own tests (below
    # MIN_OPS the tail is the maximum). --setup-only: one extra set-up.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
