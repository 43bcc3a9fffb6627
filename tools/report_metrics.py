#!/usr/bin/env python3
"""Render and diff the observability artifacts the benches drop in bench_out/.

Two artifact kinds (both emitted through src/util/obs/json.cpp):

  MANIFEST_<name>.json   schema "pmtbr-manifest/1": build identity, thread
                         configuration, every solver counter, aggregated
                         trace-scope timings (docs/OBSERVABILITY.md).
  BENCH_<name>.json      wall-clock timing records written by
                         bench::write_timing_json, with the run's process
                         CPU seconds and utilization (CPU seconds per wall
                         second).

Usage:
  python3 tools/report_metrics.py show bench_out/MANIFEST_cost_scaling.json ...
  python3 tools/report_metrics.py diff OLD.json NEW.json
  python3 tools/report_metrics.py validate bench_out/*.json

`show` prints one table per file; `diff` prints counter / timing deltas
between two runs of the same workload (old vs. new); `validate` just checks
schema conformance and exits nonzero on any violation — CI uses this to
guarantee every bench produced a parseable manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MANIFEST_SCHEMA = "pmtbr-manifest/1"

MANIFEST_REQUIRED = {
    "schema": str,
    "run": str,
    "git_describe": str,
    "build_type": str,
    "threads": int,
    "env": dict,
    "trace_enabled": bool,
    "process": dict,
    "extra": dict,
    "counters": dict,
    "trace": list,
}

# The process' resource usage at manifest time: CPU seconds in user and
# system mode and minor page faults (getrusage(RUSAGE_SELF)), peak RSS
# (VmHWM; null where /proc/self/status is unavailable).
PROCESS_FIELDS = {"user_cpu_s": (int, float), "sys_cpu_s": (int, float),
                  "minor_faults": int, "max_rss_mb": (int, float)}


def validate_process(proc: dict) -> list[str]:
    errors = []
    for key, typ in PROCESS_FIELDS.items():
        value = proc.get(key)
        if key == "max_rss_mb" and key in proc and value is None:
            continue
        if not isinstance(value, typ) or isinstance(value, bool):
            errors.append(f"process.{key} missing or not a number")
        elif value < 0:
            errors.append(f"process.{key} is negative")
    return errors


# Optional "degradation" extra (mor::degradation_extra, docs/ROBUSTNESS.md):
# per-run graceful-degradation stats. When present it must carry the full
# field set so retry/drop/reweight counts are auditable.
DEGRADATION_COUNTS = ("samples_attempted", "samples_ok", "samples_dropped",
                      "retries", "regularized", "reweights")


def validate_degradation(deg) -> list[str]:
    errors = []
    if not isinstance(deg, dict):
        return ["extra 'degradation' must be an object"]
    for key in DEGRADATION_COUNTS:
        if not isinstance(deg.get(key), int) or deg.get(key) < 0:
            errors.append(f"degradation.{key} must be a nonnegative integer")
    cov = deg.get("coverage")
    if not isinstance(cov, (int, float)) or not 0.0 <= cov <= 1.0:
        errors.append("degradation.coverage must be a number in [0, 1]")
    failures = deg.get("failures")
    if not isinstance(failures, list):
        errors.append("degradation.failures must be an array")
    else:
        for i, f in enumerate(failures):
            if not isinstance(f, dict) or not {"sample", "code", "retries"} <= f.keys():
                errors.append(f"degradation.failures[{i}] lacks sample/code/retries")
        if isinstance(deg.get("samples_dropped"), int) \
                and len(failures) < deg["samples_dropped"]:
            errors.append("degradation.failures records fewer entries than samples_dropped")
    return errors


# "serve" manifest extra (serve::serve_extra, docs/SERVING.md): monotonic
# service totals whose outcome fields partition every submission.
SERVE_COUNTS = ("submitted", "completed", "failed", "cancelled", "expired",
                "rejected")
SERVE_SECONDS = ("queue_seconds", "run_seconds")


def validate_serve_extra(serve) -> list[str]:
    errors = []
    if not isinstance(serve, dict):
        return ["extra 'serve' must be an object"]
    for key in SERVE_COUNTS:
        if not isinstance(serve.get(key), int) or serve.get(key) < 0:
            errors.append(f"serve.{key} must be a nonnegative integer")
    for key in SERVE_SECONDS:
        v = serve.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            errors.append(f"serve.{key} must be a nonnegative number")
    # cache_hits is optional (older artifacts predate the model cache) but
    # when present it must be a subset of completed — hits are completions
    # served from the cache, never a new outcome class.
    hits = serve.get("cache_hits")
    if hits is not None and (not isinstance(hits, int) or hits < 0):
        errors.append("serve.cache_hits must be a nonnegative integer")
    if not errors:
        terminal = sum(serve[k] for k in SERVE_COUNTS[1:])
        if serve["submitted"] != terminal:
            errors.append("serve outcome fields do not partition 'submitted'")
        if isinstance(hits, int) and hits > serve["completed"]:
            errors.append("serve.cache_hits exceeds 'completed'")
    return errors


# "cache" manifest extra (serve::cache_extra, docs/SERVING.md): one stats
# object per cache layer (sampled-span LRU, shared solve LRU).
CACHE_LAYERS = ("model", "factor")
CACHE_COUNTS = ("hits", "misses", "evictions", "entries", "bytes")


def validate_cache_extra(cache) -> list[str]:
    if not isinstance(cache, dict):
        return ["extra 'cache' must be an object"]
    errors = []
    for layer in CACHE_LAYERS:
        obj = cache.get(layer)
        if not isinstance(obj, dict):
            errors.append(f"cache.{layer} must be an object")
            continue
        for key in CACHE_COUNTS:
            if not isinstance(obj.get(key), int) or obj.get(key) < 0:
                errors.append(f"cache.{layer}.{key} must be a nonnegative integer")
    return errors


def validate_percentiles(prefix: str, obj) -> list[str]:
    if not isinstance(obj, dict):
        return [f"{prefix} must be an object"]
    errors = []
    for key in ("p50", "p99"):
        v = obj.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            errors.append(f"{prefix}.{key} must be a nonnegative number")
    return errors


def is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0


# A sweep point whose utilization is below this many CPUs per runner did not
# get its CPUs from the host: it is marked underutilized and carries no
# jobs_per_second (bench_serve_throughput's kMinUtilizationPerRunner).
MIN_UTILIZATION_PER_RUNNER = 0.75
# The run's usage that bench::write_timing_json records in every artifact.
RUN_USAGE = ("process_cpu_seconds", "utilization")
SWEEP_USAGE = ("wall_seconds", "process_cpu_seconds", "utilization")


# "serve" array in a timing artifact (bench_serve_throughput): one entry per
# runner-count sweep point, its batch repeated for at least a second, with
# its utilization, throughput and latency percentiles. Points written before
# utilization was recorded carry none of its fields and always a throughput.
def validate_serve_sweep(sweep) -> list[str]:
    if not isinstance(sweep, list):
        return ["'serve' must be an array of sweep points"]
    errors = []
    for i, pt in enumerate(sweep):
        if not isinstance(pt, dict):
            errors.append(f"serve[{i}] must be an object")
            continue
        measured = "utilization" in pt
        for key in ("runners", "repetitions", "jobs") if measured else ("runners", "jobs"):
            if not is_count(pt.get(key)):
                errors.append(f"serve[{i}].{key} must be a nonnegative integer")
        for key in SWEEP_USAGE if measured else ():
            if not is_number(pt.get(key)):
                errors.append(f"serve[{i}].{key} must be a nonnegative number")
        low = pt.get("underutilized", None if measured else False)
        if not isinstance(low, bool):
            errors.append(f"serve[{i}].underutilized must be a boolean")
        elif measured and is_count(pt.get("runners")) and is_number(pt["utilization"]) and \
                low != (pt["utilization"] < MIN_UTILIZATION_PER_RUNNER * pt["runners"]):
            errors.append(f"serve[{i}].underutilized disagrees with its utilization")
        if low is True and "jobs_per_second" in pt:
            errors.append(f"serve[{i}] is underutilized but reports jobs_per_second")
        elif low is False and not is_number(pt.get("jobs_per_second")):
            errors.append(f"serve[{i}].jobs_per_second must be a nonnegative number")
        for section in ("queue_seconds", "run_seconds"):
            errors.extend(validate_percentiles(f"serve[{i}].{section}",
                                               pt.get(section)))
        outcomes = pt.get("outcomes")
        if not isinstance(outcomes, dict) or not all(
                isinstance(outcomes.get(k), int) and outcomes[k] >= 0
                for k in SERVE_COUNTS[1:]):
            errors.append(f"serve[{i}].outcomes lacks nonnegative "
                          f"{'/'.join(SERVE_COUNTS[1:])}")
    return errors


# "repeated_workload" object in a timing artifact (bench_serve_throughput):
# throughput of one job set through the span cache, cold, at another fixed
# order (reorder, with the hits that wave recorded) and repeated (warm).
REPEATED_PHASES = ("cold", "reorder", "warm")


def validate_repeated_workload(rep) -> list[str]:
    if not isinstance(rep, dict):
        return ["'repeated_workload' must be an object"]
    errors = []
    for key in ("jobs_per_wave", "warm_waves", "cache_hits"):
        if not is_count(rep.get(key)):
            errors.append(f"repeated_workload.{key} must be a nonnegative integer")
    for phase in REPEATED_PHASES:
        obj = rep.get(phase)
        if not isinstance(obj, dict):
            errors.append(f"repeated_workload.{phase} must be an object")
            continue
        for key in ("wall_seconds", "jobs_per_second"):
            v = obj.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                errors.append(f"repeated_workload.{phase}.{key} must be a "
                              "nonnegative number")
        if phase == "reorder" and not is_count(obj.get("cache_hits")):
            errors.append("repeated_workload.reorder.cache_hits must be a "
                          "nonnegative integer")
    return errors


def fail(msg: str) -> None:
    print(f"report_metrics: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: unreadable or invalid JSON ({e})")
    if not isinstance(data, dict):
        fail(f"{path}: top-level JSON value must be an object")
    return data


def is_manifest(data: dict) -> bool:
    return "schema" in data


def validate_manifest(path: Path, data: dict) -> list[str]:
    errors = []
    if data.get("schema") != MANIFEST_SCHEMA:
        errors.append(f"schema is {data.get('schema')!r}, expected {MANIFEST_SCHEMA!r}")
    for key, typ in MANIFEST_REQUIRED.items():
        if key not in data:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(data[key], typ):
            errors.append(f"key {key!r} has type {type(data[key]).__name__}, "
                          f"expected {typ.__name__}")
    if isinstance(data.get("process"), dict):
        errors.extend(validate_process(data["process"]))
    for name, value in data.get("counters", {}).items():
        if not isinstance(value, int):
            errors.append(f"counter {name!r} is not an integer")
    for i, scope in enumerate(data.get("trace", [])):
        if not isinstance(scope, dict) or not {"path", "count", "seconds"} <= scope.keys():
            errors.append(f"trace[{i}] lacks path/count/seconds")
    extra = data.get("extra")
    if isinstance(extra, dict) and "degradation" in extra:
        errors.extend(validate_degradation(extra["degradation"]))
    if isinstance(extra, dict) and "serve" in extra:
        errors.extend(validate_serve_extra(extra["serve"]))
    if isinstance(extra, dict) and "cache" in extra:
        errors.extend(validate_cache_extra(extra["cache"]))
    return [f"{path}: {e}" for e in errors]


def validate_timing(path: Path, data: dict) -> list[str]:
    errors = []
    if not isinstance(data.get("bench"), str):
        errors.append("missing 'bench' name")
    records = data.get("records")
    if not isinstance(records, list):
        errors.append("missing 'records' array")
    else:
        for i, r in enumerate(records):
            if not isinstance(r, dict) or "label" not in r or "wall_seconds" not in r:
                errors.append(f"records[{i}] lacks label/wall_seconds")
            elif "gflops" in r and not is_number(r["gflops"]):
                errors.append(f"records[{i}].gflops must be a nonnegative number")
    # Artifacts written before the run's utilization was recorded lack both.
    if "process_cpu_seconds" in data or "utilization" in data:
        for key in RUN_USAGE:
            if not is_number(data.get(key)):
                errors.append(f"'{key}' must be a nonnegative number")
    if "serve" in data:
        errors.extend(validate_serve_sweep(data["serve"]))
    if "repeated_workload" in data:
        errors.extend(validate_repeated_workload(data["repeated_workload"]))
    return [f"{path}: {e}" for e in errors]


def validate(path: Path, data: dict) -> list[str]:
    return validate_manifest(path, data) if is_manifest(data) else validate_timing(path, data)


# --- rendering ---------------------------------------------------------------


def show_manifest(data: dict) -> None:
    print(f"run: {data['run']}   git: {data['git_describe']}   "
          f"build: {data['build_type']}   threads: {data['threads']}")
    env = ", ".join(f"{k}={v}" for k, v in data["env"].items() if v is not None) or "(default)"
    print(f"env: {env}   trace_enabled: {data['trace_enabled']}")
    proc = data.get("process")
    if isinstance(proc, dict):
        print("process: " + "  ".join(f"{k}={proc.get(k)}" for k in PROCESS_FIELDS))
    if data["extra"]:
        print("extra: " + ", ".join(f"{k}={v}" for k, v in data["extra"].items()
                                    if k != "cache"))
    cache = data["extra"].get("cache") if isinstance(data.get("extra"), dict) else None
    if isinstance(cache, dict):
        for layer in CACHE_LAYERS:
            st = cache.get(layer, {})
            print(f"cache {layer}: " + "  ".join(
                f"{k}={st.get(k, 0):,}" for k in CACHE_COUNTS))
    nonzero = {k: v for k, v in data["counters"].items() if v != 0}
    if nonzero:
        width = max(len(k) for k in nonzero)
        print("counters (nonzero):")
        for name, value in sorted(nonzero.items()):
            print(f"  {name:<{width}}  {value:>14,}")
    else:
        print("counters: all zero")
    if data["trace"]:
        print("trace scopes (by total seconds):")
        scopes = sorted(data["trace"], key=lambda s: -s["seconds"])
        width = max(len(s["path"]) for s in scopes)
        for s in scopes:
            per = s["seconds"] / s["count"] if s["count"] else 0.0
            print(f"  {s['path']:<{width}}  {s['seconds']:>10.4f}s  "
                  f"x{s['count']:<8}  {per * 1e3:>10.4f} ms/call")
    elif data["trace_enabled"]:
        print("trace: enabled, no scopes closed")


def throughput(pt: dict) -> str:
    if pt.get("underutilized"):
        return "underutilized, jobs/s withheld"
    return f"{pt['jobs_per_second']:.2f} jobs/s"


def utilization(pt: dict) -> str:
    if "utilization" not in pt:
        return "utilization not recorded"
    return (f"utilization {pt['utilization']:.2f} ({pt['repetitions']} batches, "
            f"{pt['wall_seconds']:.2f}s)")


def show_timing(data: dict) -> None:
    usage = (f"   process CPU {data['process_cpu_seconds']:.3f}s   "
             f"utilization {data['utilization']:.2f}" if "utilization" in data else "")
    print(f"bench: {data['bench']}{usage}")
    for r in data["records"]:
        extras = "  ".join(f"{k}={r[k]}" for k in ("n", "samples", "threads") if k in r)
        if r.get("gflops"):
            extras += f"  {r['gflops']:.2f} GF/s"
        print(f"  {r['label']:<40}  {r['wall_seconds']:>10.4f}s  {extras}")
    for pt in data.get("serve", []):
        q, rn = pt["queue_seconds"], pt["run_seconds"]
        print(f"  serve runners={pt['runners']}: {throughput(pt)}  {utilization(pt)}  "
              f"queue p50/p99 {q['p50'] * 1e3:.2f}/{q['p99'] * 1e3:.2f} ms  "
              f"run p50/p99 {rn['p50'] * 1e3:.2f}/{rn['p99'] * 1e3:.2f} ms")
    rep = data.get("repeated_workload")
    if rep:
        cold, reorder, warm = rep["cold"], rep["reorder"], rep["warm"]

        def speedup(phase: dict) -> float:
            return (phase["jobs_per_second"] / cold["jobs_per_second"]
                    if cold["jobs_per_second"] else 0.0)

        print(f"  repeated workload ({rep['jobs_per_wave']} jobs x "
              f"{rep['warm_waves']} warm waves): "
              f"cold {cold['jobs_per_second']:.2f} jobs/s  "
              f"reorder {reorder['jobs_per_second']:.2f} jobs/s "
              f"({speedup(reorder):.1f}x, {reorder['cache_hits']} hits)  "
              f"warm {warm['jobs_per_second']:.2f} jobs/s  "
              f"({speedup(warm):.1f}x, {rep['cache_hits']} cache hits)")


def cmd_show(paths: list[Path]) -> int:
    for i, path in enumerate(paths):
        data = load(path)
        errors = validate(path, data)
        if errors:
            for e in errors:
                print(e, file=sys.stderr)
            return 1
        if i:
            print()
        print(f"== {path}")
        show_manifest(data) if is_manifest(data) else show_timing(data)
    return 0


# --- diffing -----------------------------------------------------------------


def fmt_delta(old: float, new: float) -> str:
    if old == 0:
        return "(new)" if new != 0 else ""
    return f"{(new - old) / old * 100.0:+.1f}%"


def diff_manifests(old: dict, new: dict) -> None:
    for field in ("run", "git_describe", "build_type", "threads"):
        if old[field] != new[field]:
            print(f"{field}: {old[field]} -> {new[field]}")
    names = sorted(set(old["counters"]) | set(new["counters"]))
    rows = []
    for name in names:
        a, b = old["counters"].get(name, 0), new["counters"].get(name, 0)
        if a or b:
            rows.append((name, a, b))
    if rows:
        width = max(len(r[0]) for r in rows)
        print("counters:")
        for name, a, b in rows:
            marker = "" if a == b else "  <- changed"
            print(f"  {name:<{width}}  {a:>14,}  {b:>14,}  {fmt_delta(a, b):>8}{marker}")
    old_trace = {s["path"]: s for s in old["trace"]}
    new_trace = {s["path"]: s for s in new["trace"]}
    paths = sorted(set(old_trace) | set(new_trace))
    if paths:
        width = max(len(p) for p in paths)
        print("trace seconds:")
        for p in paths:
            a = old_trace.get(p, {}).get("seconds", 0.0)
            b = new_trace.get(p, {}).get("seconds", 0.0)
            print(f"  {p:<{width}}  {a:>10.4f}  {b:>10.4f}  {fmt_delta(a, b):>8}")


def diff_timings(old: dict, new: dict) -> None:
    old_rec = {r["label"]: r for r in old["records"]}
    new_rec = {r["label"]: r for r in new["records"]}
    labels = sorted(set(old_rec) | set(new_rec))
    width = max([len(l) for l in labels] + [len(k) for k in RUN_USAGE])
    for label in labels:
        if label not in old_rec or label not in new_rec:
            side = "old" if label in old_rec else "new"
            print(f"  {label:<{width}}  only in the {side} run")
            continue
        a, b = old_rec[label]["wall_seconds"], new_rec[label]["wall_seconds"]
        print(f"  {label:<{width}}  {a:>10.4f}s  {b:>10.4f}s  {fmt_delta(a, b):>8}")
    for key in RUN_USAGE:
        if key in old and key in new:
            a, b = old[key], new[key]
            print(f"  {key:<{width}}  {a:>10.3f}   {b:>10.3f}   {fmt_delta(a, b):>8}")
        elif key in old or key in new:
            print(f"  {key:<{width}}  only in the {'old' if key in old else 'new'} run")
    old_pts = {pt["runners"]: pt for pt in old.get("serve", [])}
    new_pts = {pt["runners"]: pt for pt in new.get("serve", [])}
    for runners in sorted(set(old_pts) & set(new_pts)):
        a, b = old_pts[runners], new_pts[runners]
        print(f"  serve runners={runners}: {utilization(a)} -> {utilization(b)}, "
              f"{throughput(a)} -> {throughput(b)}")
    if "repeated_workload" in old or "repeated_workload" in new:
        for phase in REPEATED_PHASES:
            a = old.get("repeated_workload", {}).get(phase, {}).get("jobs_per_second", 0.0)
            b = new.get("repeated_workload", {}).get(phase, {}).get("jobs_per_second", 0.0)
            label = f"repeated_workload.{phase} jobs/s"
            print(f"  {label:<{width}}  {a:>10.2f}   {b:>10.2f}   {fmt_delta(a, b):>8}")


def cmd_diff(old_path: Path, new_path: Path) -> int:
    old, new = load(old_path), load(new_path)
    errors = validate(old_path, old) + validate(new_path, new)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 1
    if is_manifest(old) != is_manifest(new):
        fail("cannot diff a manifest against a timing artifact")
    print(f"== {old_path} -> {new_path}")
    diff_manifests(old, new) if is_manifest(old) else diff_timings(old, new)
    return 0


def cmd_validate(paths: list[Path]) -> int:
    errors = []
    for path in paths:
        errors.extend(validate(path, load(path)))
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"report_metrics: {len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    print(f"report_metrics: {len(paths)} artifact(s) valid")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_show = sub.add_parser("show", help="render manifests / timing artifacts")
    p_show.add_argument("files", nargs="+", type=Path)
    p_diff = sub.add_parser("diff", help="diff two runs of the same workload")
    p_diff.add_argument("old", type=Path)
    p_diff.add_argument("new", type=Path)
    p_val = sub.add_parser("validate", help="schema-check artifacts, exit nonzero on violation")
    p_val.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv[1:])
    if args.cmd == "show":
        return cmd_show(args.files)
    if args.cmd == "diff":
        return cmd_diff(args.old, args.new)
    return cmd_validate(args.files)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
