#!/usr/bin/env python3
"""Benchmark of the htss CLI pipeline: gen -> taxonomy -> pseudolabel -> train -> eval.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-joint --seed 1 --seconds 36 --trace 0

A run writes the workload's world and config documents from --seed, then
repeats the whole pipeline in this process through `htss.cli.main` until
--seconds is used up, each round in a fresh work directory. With
--trace 0 every round is plain and the run reports the end-to-end
metrics. With --trace 1 plain and traced rounds alternate: traced rounds
give the per-layer metrics, and the difference to the plain rounds is
reported as tracing overhead. Every round must write the same output
tree, traced or not.

Times are reported in reference seconds. In plain rounds a short
calibration kernel runs before each subcommand, after every training
step and after each subcommand (see SpeedClock); the time between two of
these marks is scaled by how long the kernel took around it, so a shared
machine that runs slower for a moment does not read as a slower program.
Calibration time is left out of every measured time. Raw wall times are
kept in the details file.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it print every metric by name with its unit.
Details (environment, hashes, raw times) go to
.perfbench_out/<workload>-seed<n>-trace<t>.json, and the spans of traced
rounds to .perfbench_out/<workload>-seed<n>-spans.csv. The exit code is
0 when every output check passed, 1 when one failed and 2 when the run
could not start (for example when src/htss is missing).
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller says otherwise: the GEMMs here are
# small, and spinning BLAS threads make timings depend on other load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS[:3]:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 9
TIMED_COMMANDS = ("gen", "taxonomy", "pseudolabel", "train", "eval")
# too short, or too bound to file creation, to hold a bound on a shared VM,
# so listed as per-layer metrics
SUBCOMMAND_TIMES = ("gen_s", "taxonomy_s", "pseudolabel_s", "eval_s", "pipeline_s")


def _fail_start(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_cli():
    sys.path.insert(0, str(SRC))
    import htss
    import htss.cli
    import htss.model
    if Path(htss.__file__).resolve().parent != SRC / "htss":
        _fail_start(f"imported htss from {htss.__file__}, not from {SRC}")
    return htss.cli, htss.model


def environment() -> dict:
    nproc = os.cpu_count() or 1
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = nproc
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = None
    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    above = []
    for var, value in threads.items():
        try:
            if value is not None and int(value) > usable:
                above.append(var)
        except ValueError:
            pass
    return {"nproc": nproc, "usable_cpus": usable, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_version": blas_version,
            "thread_env": threads, "threads_above_nproc": above,
            "machine": platform.machine()}


def measure_setup(name: str, seed: int, scratch: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import htss.cli and write the
    documents, raw and scaled by the mean of the calibrations taken just
    before and just after each."""
    raw, scaled = [], []
    before = calibrate()
    for i in range(SETUP_PROBES):
        target = scratch / f"probe{i}"
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), name, str(seed), str(target)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        raw.append(perf_counter() - t0)
        after = calibrate()
        scaled.append(raw[-1] * 2.0 * REF_KERNEL_S / (before + after))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        shutil.rmtree(target, ignore_errors=True)
    return raw, scaled


def tree_digest(root: Path) -> str:
    """SHA-256 over every file path and content under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def check_outputs(wl, work: Path) -> list[str]:
    """Problems with one round's outputs; empty when they are correct."""
    problems = []
    losses = work / "run" / "losses.csv"
    if not losses.is_file():
        problems.append("losses.csv missing")
    else:
        lines = losses.read_text(encoding="utf-8").splitlines()
        if lines[:1] != ["step,loss"] or len(lines) != wl.train_steps + 1:
            problems.append(f"losses.csv has {len(lines) - 1} rows, "
                            f"expected {wl.train_steps}")
        for i, line in enumerate(lines[1:]):
            step, _, value = line.partition(",")
            try:
                ok = int(step) == i and math.isfinite(float(value))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"losses.csv row {i} is not '{i},<finite loss>'")
                break
    summary = work / "eval" / "summary.json"
    try:
        miou = json.loads(summary.read_text(encoding="utf-8"))["mean_miou"]
        if not (isinstance(miou, float) and math.isfinite(miou)):
            problems.append(f"mean_miou is {miou!r}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"summary.json unreadable: {exc}")
    return problems


class SpeedClock:
    """Wall time between marks, raw and in reference seconds.

    Every mark runs micro_calibrate(). The segment since the previous mark
    is scaled by REF_KERNEL_S over the mean of the two calibrations around
    it. On a shared VM the machine's speed changes within a second, so only
    a calibration taken next to the work it scales tracks it; one taken
    seconds before a long subcommand adds noise instead of removing it.
    """

    def __init__(self):
        self.cal = micro_calibrate()
        self.t = perf_counter()

    def mark(self) -> tuple[float, float]:
        """(raw, scaled) seconds since the last mark, calibration excluded."""
        raw = perf_counter() - self.t
        cal = micro_calibrate()
        self.t = perf_counter()
        scaled = raw * 2.0 * REF_KERNEL_S / (self.cal + cal)
        self.cal = cal
        return raw, scaled


class Round:
    """One pipeline run in its own work directory."""

    def __init__(self, cli, model, wl, work: Path, tracer: Tracer | None):
        self.cli, self.model, self.wl, self.work = cli, model, wl, work
        self.tracer = tracer
        self.times: dict[str, float] = {}
        # reference seconds, plain rounds only
        self.scaled: dict[str, float] = {}
        self.codes: list[int] = []
        # (raw, scaled) time between successive returns of sgd_step
        self.steps: list[tuple[float, float]] = []
        self._clock: SpeedClock | None = None
        self._total = [0.0, 0.0]
        self._stepping = False

    def _segment(self) -> tuple[float, float]:
        seg = self._clock.mark()
        self._total[0] += seg[0]
        self._total[1] += seg[1]
        return seg

    def _main(self, argv: list[str]) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed subcommand, not a crash
            traceback.print_exc()
            return 1

    def run(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        configs = workloads.write_documents(self.wl, self.work)
        # start every round from the same state: deletions committed, no dirty
        # pages of the last round left to write back, no garbage to collect
        os.sync()
        gc.collect()
        if self.tracer is not None:
            self.tracer.install()
        else:  # a speed mark after every training step, nothing else
            original = self.model.sgd_step

            def stamped(*args, **kwargs):
                result = original(*args, **kwargs)
                seg = self._segment()
                if self._stepping:
                    self.steps.append(seg)
                self._stepping = True
                return result
            self.model.sgd_step = stamped
            self._clock = SpeedClock()
        try:
            for cmd, path in configs:
                argv = [cmd, "--config", str(path)]
                if self.tracer is None:
                    self._clock.mark()
                    self._total, self._stepping = [0.0, 0.0], False
                    code = self._main(argv)
                    self._segment()
                    self.times[cmd], self.scaled[cmd] = self._total
                else:
                    t0 = perf_counter()
                    code = self.tracer.span(f"cli.{cmd}", lambda: self._main(argv))
                    self.times[cmd] = perf_counter() - t0
                self.codes.append(code)
                if code != 0:
                    print(f"perfbench: {cmd} exited {code}", file=sys.stderr)
                    return
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            else:
                self.model.sgd_step = original
        if self.tracer is not None:
            ends = [end for name, _, end, _ in self.tracer.spans
                    if name == "model.sgd_step"]
            self.steps = [(b - a, b - a) for a, b in zip(ends, ends[1:])]


# one pass of _kernel on a quiet 2-vCPU Xeon VM with Python 3.11 and numpy 2.4
REF_KERNEL_S = 0.0013
_CAL_X = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_CAL_T = np.linspace(0.0, 1.0, 4 * 8 * 10 * 10).reshape(4, 8, 10, 10)
_CAL_A = np.linspace(0.0, 1.0, 2304 * 144).reshape(2304, 144)
_CAL_B = np.linspace(0.0, 1.0, 144 * 16).reshape(144, 16)


def _kernel(passes: int) -> float:
    """Seconds per pass of a fixed kernel: how fast the machine runs right now.

    A pass mixes what the pipeline spends its time on: interpreter loops,
    small numpy calls (pad, ufunc, reduction), a tiny matmul and one
    im2col-sized GEMM. With a neighbour loading the other vCPU, this mix
    followed the slowdown of dense-joint training steps (+3% scaled
    against +15% raw) better than a matmul-and-sum kernel did (+10%).
    """
    t0 = perf_counter()
    acc = 0.0
    for _ in range(passes):
        for _ in range(5):
            acc += float((_CAL_X @ _CAL_X)[0, 0]) + sum(range(3000))
        for _ in range(10):
            y = np.pad(_CAL_T, ((0, 0), (0, 0), (1, 1), (1, 1)))
            acc += float((y * 2.0).sum())
        for i in range(1500):
            acc += i * i % 7
        acc += float((_CAL_A @ _CAL_B)[0, 0])
    return (perf_counter() - t0) / passes


def calibrate() -> float:
    """Median of three ten-pass kernels, taken around each set-up probe."""
    return statistics.median(_kernel(10) for _ in range(3))


def micro_calibrate() -> float:
    """One pass, short enough (about 1.3 ms) to run after every training step.
    An untimed pass first brings its code and data back into cache, so the
    time depends less on what the program did just before."""
    _kernel(1)
    return _kernel(1)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(rounds: list[Round], scale: bool = True) -> dict[str, float]:
    """Medians over the rounds' samples, in reference seconds (see
    SpeedClock) when scale is set, else in raw wall seconds."""
    def times(r):
        return r.scaled if scale else r.times
    out = {f"{cmd}_s": statistics.median(times(r)[cmd] for r in rounds)
           for cmd in TIMED_COMMANDS}
    out["pipeline_s"] = statistics.median(
        sum(times(r)[cmd] for cmd in TIMED_COMMANDS) for r in rounds)
    steps = [1e3 * step[1 if scale else 0] for r in rounds for step in r.steps]
    out["train_step_ms_p50"] = percentile(steps, 50)
    out["train_step_ms_p90"] = percentile(steps, 90)
    return out


# per-layer metric groups, by the span self time they read
BUSY = ("model.forward", "model.backward", "model.sgd_step",
        "lossgrad.batch_loss", "lossgrad.softmax_atoms", "lossgrad.accumulate_groups",
        "lossgrad.group_matrix", "lossgrad.merge_subclass_predictions",
        "annotations.strong_to_canvas", "annotations.canvas_from_boxes",
        "annotations.refine_canvas",
        "taxonomy.build_semantic_atoms", "taxonomy.build_group_sets",
        "taxonomy.partition_atoms", "taxonomy.validate_taxonomy",
        "formats.read_raster", "formats.write_raster", "synthgen.generate_scene",
        "metrics.confusion_add", "metrics.report_build")
CALLS = ("model.forward", "model.backward", "lossgrad.batch_loss",
         "lossgrad.softmax_atoms", "lossgrad.group_matrix",
         "annotations.strong_to_canvas", "annotations.canvas_from_boxes",
         "annotations.canvas_from_tags", "taxonomy.build_semantic_atoms",
         "taxonomy.semantic_closure", "formats.read_raster", "formats.write_raster",
         "synthgen.generate_scene")
SELF = ("model.train_loop", "synthgen.emit_dataset", "synthgen.load_dataset") + tuple(
    f"cli.{cmd}" for cmd in TIMED_COMMANDS)
COMBINED = {"formats.weak_label": ("formats.read_weak_label", "formats.write_weak_label"),
            "formats.checkpoint": ("formats.read_array_file", "formats.write_array_file")}


def layer_metrics(tracer: Tracer, spans: dict[str, tuple[int, float]]) -> dict[str, float]:
    c = tracer.counters

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    out = {f"{n}.busy_s": self_s(n) for n in BUSY}
    out.update({f"{n}.calls": spans.get(n, (0, 0.0))[0] for n in CALLS})
    out.update({f"{n}.self_s": self_s(n) for n in SELF})
    out.update({f"{n}.busy_s": sum(self_s(p) for p in parts)
                for n, parts in COMBINED.items()})
    out["formats.read_raster.mb"] = c["formats.read_raster.bytes"] / 1e6
    out["formats.write_raster.mb"] = c["formats.write_raster.bytes"] / 1e6
    conv_s = self_s("model.forward") + self_s("model.backward")
    out["model.conv_gflop_per_s"] = c["model.flops"] / conv_s / 1e9 if conv_s else 0.0
    kept, raw = c["gate.kept_px"], c["gate.raw_px"]
    out["annotations.gate_kept_px"] = kept
    out["annotations.gate_raw_px"] = raw
    out["annotations.gate_keep_ratio"] = kept / raw if raw else 0.0
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        _fail_start(f"cannot read BENCHMARK.json: {exc}")
    if not (SRC / "htss" / "cli.py").is_file():
        _fail_start(f"no htss sources under {SRC}")

    wl = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    base = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        setup_raw, setup = measure_setup(args.workload, args.seed, base)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        _fail_start(str(exc))
    cli, model = _import_cli()

    problems: list[str] = []
    rounds: list[Round] = []
    digests: list[str] = []
    layer_rounds: list[dict[str, float]] = []
    start = perf_counter()
    while True:
        # round 0 warms caches and lazy imports and is checked but not timed;
        # with --trace 1 traced and plain rounds alternate after it
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rnd = Round(cli, model, wl, base / "work", Tracer() if traced else None)
        t0 = perf_counter()
        rnd.run()
        took = perf_counter() - t0
        rounds.append(rnd)
        if any(rnd.codes):
            problems.append(f"round {len(rounds)}: {list(rnd.times)[-1]} exited "
                            f"{rnd.codes[-1]}")
            break
        problems += [f"round {len(rounds)}: {p}" for p in check_outputs(wl, rnd.work)]
        digests.append(tree_digest(rnd.work))
        if traced:
            entered = rnd.tracer.self_times()
            missing = [s for s in wl.required_spans if s not in entered]
            if missing:
                problems.append(f"traced round entered no {', '.join(missing)}")
            layer_rounds.append(layer_metrics(rnd.tracer, entered))
        if problems:
            break
        elapsed = perf_counter() - start
        if len(rounds) >= 2 + args.trace and elapsed + took > args.seconds:
            break
    if len(set(digests)) > 1:
        problems.append("output trees differ between rounds"
                        + (" (traced vs plain)" if args.trace else ""))
    for key in layer_rounds[0] if layer_rounds else ():
        if key.endswith((".calls", "_px", ".mb")) and len({r[key] for r in layer_rounds}) > 1:
            problems.append(f"count {key} differs between traced rounds")
    hashes = {"losses.csv": sha256(base / "work" / "run" / "losses.csv"),
              "final.ckpt": sha256(base / "work" / "run" / "final.ckpt")}
    try:
        miou = json.loads((base / "work" / "eval" / "summary.json")
                          .read_text(encoding="utf-8"))["mean_miou"]
    except (OSError, ValueError, KeyError):
        miou = float("nan")
    shutil.rmtree(base, ignore_errors=True)
    if args.trace:
        spans_path = out_dir / f"{tag}-spans.csv"
        spans_path.write_text("round,index,name,start,end,parent\n", encoding="utf-8")
        for i, r in enumerate(rounds, 1):
            if r.tracer is not None:
                r.tracer.write_spans(spans_path, str(i))

    attempted = sum(len(r.codes) for r in rounds)
    failed = sum(1 for r in rounds for code in r.codes if code != 0)
    correct = not problems
    plain = [r for r in rounds[1:] if r.tracer is None]
    traced_rounds = [r for r in rounds if r.tracer is not None]
    e2e: dict[str, float] = {}
    values: dict[str, float] = {}
    if correct:
        e2e = end_to_end(plain)
        e2e["setup_s"] = statistics.median(setup)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = dict(e2e)
        if args.trace:
            values.update({k: statistics.median(r[k] for r in layer_rounds)
                           for k in layer_rounds[0]})
            values["metrics.mean_miou"] = miou
            plain_wall = end_to_end(plain, scale=False)
            for k, v in end_to_end(traced_rounds, scale=False).items():
                values[f"trace_overhead.{k}"] = v - plain_wall[k]

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        elif correct:
            problems.append(f"metric {entry['name']} was not measured")
            correct = False
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "round_times_s": [r.times for r in rounds],
        "round_scaled_s": [r.scaled for r in rounds],
        "round_step_ms": [[1e3 * step[1] for step in r.steps] for r in rounds],
        "setup_probe_s": setup_raw, "train_steps": wl.train_steps,
        "sha256": hashes, "output_tree_sha256": digests[:1],
        "problems": problems, "end_to_end": e2e, "metrics": values, "eval_miou": miou,
        "end_to_end_wall": end_to_end(plain, scale=False) if correct else {},
        "op_failure_ratio": failed / max(attempted, 1),
    }
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True), encoding="utf-8")

    env = details["environment"]
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"(traced {len(traced_rounds)}) nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} {env['blas_version']}")
    if env["threads_above_nproc"]:
        print(f"# WARNING thread variables above nproc: {env['threads_above_nproc']}")
    print(f"# sha256 losses.csv={hashes['losses.csv']} final.ckpt={hashes['final.ckpt']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:  # the subcommand times BENCHMARK.json lists per layer
        for name in SUBCOMMAND_TIMES:
            if name in e2e:
                print(f"{name} = {e2e[name]:.6g} s (unbounded)")
    print(f"eval_miou = {miou:.6g} ratio (mean_miou of eval's summary.json)")
    print(f"op_failure_ratio = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} subcommands exited non-zero)")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
