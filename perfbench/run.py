#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload zipf-adwise --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It builds cmd/adwise-serve and the
benchmark's own program (perfbench/prog) from source into .bench_build/,
prepares the workload's seeded inputs there (cached by workload, seed and
parameters), then measures the workload as a pipeline of fresh processes:

  partition leg  prog part: the facade calls cmd/adwise makes (open or plan,
                 strategy run, SaveAssignment), timed at the call boundary
                 between set-up and streaming; the output is checked.
  serve leg      cmd/adwise-serve -assignment over a seeded-rule assignment of
                 the same graph, driven by one client process: a closed loop of
                 256-edge batch lookups with reloads beside it, then an open
                 loop of single lookups at a fixed rate.

Legs alternate until --seconds have passed (at least MIN_LEGS of each), and
every end-to-end metric is the median over its legs. The output checks and
the processing simulation run between legs and do not count against
--seconds. With --trace 1 the run instead times traced and untraced legs
and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. METRICS.md says what each
metric means and which layer metric should move which end-to-end metric.
"""

import argparse
import hashlib
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
BIN = BUILD / "bin"
PROG = BIN / "prog"
SERVE = BIN / "adwise-serve"

WORKLOADS = ("zipf-adwise", "rmat-hdrf")
MIN_LEGS = 2

# Metric names and units, in the order BENCHMARK.json lists them.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run at all: nothing is printed, exit non-zero."""


class Tally:
    """Counts operations attempted and failed across legs.

    A partition pass counts one operation, a server start one, and each
    lookup or reload request one; the error rate is failed / attempted.
    Outputs that are wrong (a failed check, a wrong lookup answer) fail
    the operation and also mark the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def op(self, ok, note=None, wrong=False):
        self.attempted += 1
        if not ok or wrong:
            self.failed += 1
            if note:
                self.notes.append(note)
        if wrong:
            self.correct = False

    def requests(self, attempted, failed, wrong):
        self.attempted += attempted
        self.failed += failed
        if wrong:
            self.correct = False
            self.notes.append(f"{wrong} lookup answers differ from the served assignment")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "config")):
        env[key] = str(BUILD / sub)
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", CGO_ENABLED="0", GOTELEMETRY="off")
    return env


def build():
    BIN.mkdir(parents=True, exist_ok=True)
    env = go_env()
    for cmd in (["go", "build", "-o", str(SERVE), "./cmd/adwise-serve"],
                ["go", "-C", "perfbench", "build", "-o", str(PROG), "./prog"]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
        if r.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n{r.stdout.decode(errors='replace')}")
    digest = hashlib.sha256()
    for path in (PROG, SERVE):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def last_json(text):
    lines = [ln for ln in text.decode(errors="replace").splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def prog(*args, timeout=170):
    r = subprocess.run([str(PROG), *args], stdout=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"prog {args[0]} exited {r.returncode}")
    return last_json(r.stdout)


def reap(p):
    """Waits for p and returns (exit code, peak RSS in MB) from its rusage."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def run_measured(args):
    """Runs args to completion; returns (exit code, stdout, peak RSS in MB).
    The child is killed if the benchmark is interrupted while it runs."""
    p = subprocess.Popen(args, stdout=subprocess.PIPE)
    try:
        out = p.stdout.read()
    except BaseException:
        p.kill()
        raise
    finally:
        p.stdout.close()
        code, rss = reap(p)
    return code, out, rss


def warm(meta):
    """Reads every input once so each leg starts from the same page cache."""
    for path in (*meta["graphs"], meta["serve_assignment"], meta["queries"]):
        with open(path, "rb") as f:
            while f.read(1 << 20):
                pass


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Workload:
    def __init__(self, name, seed, binhash, tally):
        self.name, self.tally = name, tally
        data = BUILD / "data"
        data.mkdir(parents=True, exist_ok=True)
        self.meta = prog("gen", "-workload", name, "-seed", str(seed), "-root", str(data), timeout=170)
        self.meta_path = str(Path(self.meta["dir"]) / "meta.json")
        self.expect_path = Path(self.meta["dir"]) / f"expect-{binhash}.json"
        self.runs = BUILD / "runs"
        self.runs.mkdir(parents=True, exist_ok=True)
        self.quality = {}  # graph index -> check result of its first pass
        self.digest = {}   # graph index -> digest of its first assignment
        self.untimed = 0.0  # seconds spent checking outputs, outside the legs' budget
        warm(self.meta)

    def partition(self, spans=None, workers=None, graphs=None):
        """One partition leg: a pass over each graph, a fresh process each.
        Returns the leg's sample, or None if a pass failed."""
        passes = []
        for i in range(len(self.meta["graphs"])) if graphs is None else graphs:
            p = self.one_pass(i, spans, workers)
            if p is None:
                return None
            passes.append(p)
        return {
            "setup_s": [p["setup_s"] for p in passes],
            "wall_s": sum(p["wall_s"] for p in passes),
            "total_s": sum(p["setup_s"] + p["wall_s"] for p in passes),
            "edges": sum(p["edges"] for p in passes),
            "rss_mb": max(p["rss_mb"] for p in passes),
            "layers": passes[0]["layers"],
        }

    def one_pass(self, i, spans, workers):
        out = self.runs / f"{self.name}-{i}.tsv"
        args = [str(PROG), "part", "-meta", self.meta_path, "-graph", str(i), "-out", str(out)]
        if spans:
            args += ["-spans", str(spans)]
        if workers is not None:
            args += ["-score-workers", str(workers)]
        start = time.time_ns()
        code, stdout, rss = run_measured(args)
        try:
            r = last_json(stdout)
        except ValueError:
            r = None
        if code != 0 or r is None:
            self.tally.op(False, f"partition pass over graph {i} exited {code}")
            return None
        t = time.monotonic()
        ok = self.verify(i, out)
        self.untimed += time.monotonic() - t
        if not ok:
            return None
        self.tally.op(True)
        return {
            "setup_s": (r["ready_unix_ns"] - start) / 1e9,
            "wall_s": (r["written_unix_ns"] - r["ready_unix_ns"]) / 1e9,
            "edges": r["edges"],
            "rss_mb": rss,
            "layers": r.get("layers", {}),
        }

    def verify(self, i, out):
        """Checks a pass's assignment: the first pass over a graph in full,
        with the processing simulation; later passes by digest."""
        digest = sha256(out)
        if i not in self.digest:
            self.digest[i] = digest
            q = self.quality[i] = prog("check", "-meta", self.meta_path, "-graph", str(i), "-assignment", str(out), "-sim")
            if not q["ok"]:
                self.tally.op(False, f"graph {i}: assignment check failed: " + "; ".join(q.get("errors", [])), wrong=True)
                return False
            self.expect(i)
        elif digest != self.digest[i]:
            self.tally.op(False, f"graph {i}: assignment differs between passes of one build", wrong=True)
            return False
        return True

    def batch_quality(self):
        """Quality over the graphs: rf and balance averaged, the processing
        job summed over the batch."""
        qs = list(self.quality.values())
        mean = lambda k: statistics.fmean(q[k] for q in qs)
        total = lambda k: sum(q[k] for q in qs)
        return {"rf": mean("rf"), "max_load": mean("max_load"), "imbalance": mean("imbalance"),
                "process_sim_s": total("process_sim_s"), "engine_messages": total("engine_messages"),
                "engine_build_s": total("engine_build_s")}

    def expect(self, i):
        """rf and balance must repeat bit for bit on every run of one build."""
        q = self.quality[i]
        mine = {"digest": self.digest[i], "rf": q["rf"], "max_load": q["max_load"], "imbalance": q["imbalance"]}
        path = self.expect_path.with_suffix(f".{i}.json")
        if path.exists():
            if json.loads(path.read_text()) != mine:
                self.tally.op(False, f"graph {i}: rf or balance differs from an earlier run of this build", wrong=True)
        else:
            path.write_text(json.dumps(mine))

    def serve(self):
        """One serve leg against the real cmd/adwise-serve."""
        start = time.time_ns()
        p = subprocess.Popen([str(SERVE), "-assignment", self.meta["serve_assignment"], "-addr", "127.0.0.1:0"],
                             stdout=subprocess.PIPE)
        try:
            addr = None
            for line in iter(p.stdout.readline, b""):
                text = line.decode(errors="replace")
                if "serving partition lookups on http://" in text:
                    addr = text.split("http://", 1)[1].strip()
                    break
            if addr is None or not healthy(addr):
                self.tally.op(False, "server did not come up")
                return None
            setup = (time.time_ns() - start) / 1e9
            self.tally.op(True)
            r = subprocess.run([str(PROG), "load", "-meta", self.meta_path, "-addr", addr],
                               stdout=subprocess.PIPE, timeout=150)
            if r.returncode != 0:
                self.tally.op(False, f"lookup client exited {r.returncode}")
                return None
            load = last_json(r.stdout)
            self.tally.requests(load["attempted"], load["failed"], load["wrong"])
        finally:
            # os.kill, not Popen.send_signal: send_signal polls, and a server
            # reaped there would leave no rusage for reap to collect.
            os.kill(p.pid, signal.SIGTERM)
            p.stdout.close()
            _, rss = reap(p)
        return {"setup_s": setup, "rss_mb": rss, "load": load}

    def inproc_serve(self, spans=None):
        """One serve leg in-process (prog tserve), with handler spans if
        spans names a file to write them to."""
        args = ["-spans", str(spans)] if spans else []
        r = subprocess.run([str(PROG), "tserve", "-meta", self.meta_path, *args],
                           stdout=subprocess.PIPE, timeout=150)
        if r.returncode != 0:
            self.tally.op(False, f"in-process serve leg exited {r.returncode}")
            return None
        self.tally.op(True)
        out = last_json(r.stdout)
        self.tally.requests(out["load"]["attempted"], out["load"]["failed"], out["load"]["wrong"])
        return out


def healthy(addr):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def med(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(q, parts, serves):
    sim = q["process_sim_s"]
    return {
        "edges_per_s": med([p["edges"] / p["wall_s"] for p in parts]),
        "setup_s": med([x for p in parts for x in p["setup_s"]]) + med([s["setup_s"] for s in serves]),
        "rf": q["rf"],
        "max_load": q["max_load"],
        "process_sim_s": sim,
        "total_latency_s": med([p["total_s"] for p in parts]) + sim,
        "peak_rss_mb": med([p["rss_mb"] for p in parts]) + med([s["rss_mb"] for s in serves]),
        "lookups_per_s": med([s["load"]["lookups_per_s"] for s in serves]),
        "lookup_p50_ms": med([s["load"]["lookup_p50_ms"] for s in serves]),
        "reload_s": med([x for s in serves for x in s["load"]["reload_s"]]),
    }


def measure(w, seconds):
    """Runs legs until seconds have passed, giving each kind of leg an equal
    share of the time: the next leg is always of the kind that has had less."""
    legs = {w.partition: [], w.serve: []}
    spent = {leg: 0.0 for leg in legs}
    start = time.monotonic()
    while (time.monotonic() - start - w.untimed < seconds or min(map(len, legs.values())) < MIN_LEGS) \
            and w.tally.failed < 3 and w.tally.correct:
        leg = min(legs, key=lambda k: (len(legs[k]) >= MIN_LEGS, spent[k]))
        t, checking = time.monotonic(), w.untimed
        sample = leg()
        spent[leg] += time.monotonic() - t - (w.untimed - checking)
        if sample is not None:
            legs[leg].append(sample)
    parts, serves = legs.values()
    if not parts or not serves:
        return None
    return end_to_end(w.batch_quality(), parts, serves)


def traced(w):
    """Untraced and traced legs, alternated; returns the per-layer metrics.

    End-to-end figures never come from here: the traced legs only feed the
    per-layer metrics, and the untraced ones the tracing overhead. The
    partition legs run over the batch's first graph only.
    """
    plain_parts, traced_parts, plain_serves, traced_serves = [], [], [], []
    for i in range(MIN_LEGS):
        plain_parts.append(w.partition(graphs=[0]))
        traced_parts.append(w.partition(spans=w.runs / f"{w.name}.part-spans.{i}.json", graphs=[0]))
        plain_serves.append(w.inproc_serve())
        traced_serves.append(w.inproc_serve(w.runs / f"{w.name}.serve-spans.{i}.json"))
    # The scoring pool at its default shard count, for the scorepool layer.
    window = w.meta["window"] > 0
    pooled = w.partition(spans=w.runs / f"{w.name}.pool-spans.json", workers=0, graphs=[0]) if window else None
    legs = plain_parts + traced_parts + plain_serves + traced_serves
    if None in legs or (window and pooled is None):
        return None
    layers = {name: 0.0 for name in PER_LAYER}
    if pooled:
        for k in ("scorepool.parallel_passes", "scorepool.pool_op_share", "scorepool.stolen_shards"):
            layers[k] = pooled["layers"][k]
        layers["scorepool.speedup"] = traced_parts[-1]["wall_s"] / pooled["wall_s"]
    for leg in (traced_parts[-1], traced_serves[-1]):
        for k, v in leg["layers"].items():
            if k in PER_LAYER and not k.startswith("scorepool."):
                layers[k] += v  # only go.* come from both legs: each process's own GC totals
    q = w.quality[0]
    layers["metrics.imbalance"] = q["imbalance"]
    layers["engine.supersteps"] = q["engine_supersteps"]
    layers["engine.messages"] = q["engine_messages"]
    layers["engine.build_s"] = q["engine_build_s"]
    eps = lambda legs: med([p["edges"] / p["wall_s"] for p in legs])
    lps = lambda legs: med([s["load"]["lookups_per_s"] for s in legs])
    layers["trace.overhead_pct"] = 100 * (1 - eps(traced_parts) / eps(plain_parts))
    layers["trace.lookup_overhead_pct"] = 100 * (1 - lps(traced_serves) / lps(plain_serves))
    return layers


def result(tally, values, units):
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def time_limit(signum, frame):
    raise BenchError("run exceeded its time limit")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    binhash = build()
    # Every later run must end within 180 s; the first also builds.
    signal.signal(signal.SIGALRM, time_limit)
    signal.alarm(170)
    tally = Tally()
    w = Workload(args.workload, args.seed, binhash, tally)
    if args.trace:
        values, units = traced(w), PER_LAYER
    else:
        values, units = measure(w, args.seconds), END_TO_END
    for note in tally.notes:
        print("perfbench:", note, file=sys.stderr)
    if values is None:
        raise BenchError(f"no leg of {args.workload} completed")
    print(json.dumps(result(tally, values, units)))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print("perfbench:", e, file=sys.stderr)
        sys.exit(1)
