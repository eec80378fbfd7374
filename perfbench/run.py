#!/usr/bin/env python3
"""The xqmft benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a source checkout. The first run builds the CLI and
the harness into .bench_build/ (CMake, perfbench/CMakeLists.txt); inputs,
token caches and memoized references go to .bench_work/.

Workloads (inputs from the Table 1 generators, seeded by --seed):
  xmark-select  `xqmft run` of q01 q02 q04 q13 q16 q17 over a 64 MiB
                XMark-profile document, in whole rounds of the six queries.
  deep-copy     `xqmft run` of double fourstar deepdup over the token cache
                of a 16 MiB TreeBank-profile document.
  serve-mixed   one `xqmft serve --port 0 --workers 2` driven over 4
                connections: an open-loop phase at a fixed rate, then a
                closed-loop phase, over 1 MiB XMark documents.

With --trace 0 the last stdout line is the end-to-end result; with --trace 1
it carries the per-layer metrics of a traced run (perfbench_harness plus a
short serving phase). Every program output is checked against
reference.py; a mismatch makes "correct" false. Progress and diagnostics go
to stderr. perfbench/README.md maps each per-layer metric to the end-to-end
metric it should move.
"""

import argparse
import gc
import hashlib
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import reference  # noqa: E402  (needs HERE on sys.path)

MIB = 1 << 20
MB = 1e6

# Figure 3 of the paper (bench_common/queries.cc holds the same texts).
QUERIES = {
    "q01": """<query01>{
  for $person in $input/site/people/person[./person_id/text()="person0"]
  return $person/name/text()}</query01>""",
    "q02": """<query02>{
  for $open_auction in /site/open_auctions/open_auction return
  <increase>{ for $increase in $open_auction/bidder/increase return
    <bid>{$increase/text()}</bid> }</increase>
}</query02>""",
    "q04": """<query04>{
  for $b in $input/site/open_auctions/open_auction
    [./bidder[./personref/personref_person/text()="personXX"]
     /following-sibling::bidder/personref/personref_person
     /text()="personYY"]
  return <history>{$b/reserve/text()}</history>}</query04>""",
    "q13": """<query13>{
  for $item in $input/site/regions/australia/item
  return <item><name>{$item/name/text()}</name>
    <description>{$item/description}</description></item>
}</query13>""",
    "q16": """<query16>{
  for $closed_auction in $input/site/closed_auctions/closed_auction
    [./annotation/description/parlist/listitem/parlist
     /listitem/text/emph/keyword/text()]
  return <person><id>{$closed_auction/seller/seller_person}</id></person>
}</query16>""",
    "q17": """<query17>{
  for $person in $input/site/people/person[empty(./homepage/text())]
  return <person><name>{$person/name/text()}</name></person>
}</query17>""",
    "double": """<double><r1>{$input/*}</r1>{$input/*}</double>""",
    "fourstar": """<fourstar>{$input//*//*//*//*}</fourstar>""",
    "deepdup": """<deepdup>{ for $x in $input/* return
  <r> { for $y in $x/* return <r1><r2>{$y}</r2>{$y}</r1> } </r>
}</deepdup>""",
}

# A query that reads nothing: the deep-copy set-up run only builds the cache.
EMPTY_QUERY = "<e></e>"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build, inputs, program runs


def build():
    """Configures (once) and builds the CLI and the harness; returns their
    paths. Exits non-zero, printing no result, when the build fails."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "xqmft_cli", "perfbench_harness"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT)
        if r.returncode != 0:
            log(r.stdout.decode(errors="replace")[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(1)
    return (os.path.join(BUILD, "perfbench_harness"),
            os.path.join(BUILD, "xqmft", "tools", "xqmft"))


def work_dir(workload, seed):
    path = os.path.join(WORK, "%s-%d" % (workload, seed))
    os.makedirs(path, exist_ok=True)
    return path


def cleanup(path):
    shutil.rmtree(path, ignore_errors=True)


def gen(harness, kind, size, seed, work, name=None):
    path = os.path.join(work, name or "%s-%d.xml" % (kind, seed))
    subprocess.run([harness, "gen", kind, str(size), str(seed), path],
                   check=True)
    return path


def query_file(work, qid):
    path = os.path.join(work, qid + ".xq")
    with open(path, "w") as f:
        f.write(QUERIES[qid])
    return path


class Run:
    """One finished program run: wall time, peak RSS and output digest."""
    __slots__ = ("wall", "rss_mb", "length", "sha1", "rc", "err")


def run_cli(cli, args):
    """Runs `xqmft <args>`, hashing stdout as it streams through a pipe (no
    disk in the measured path). Wall time is from spawn to reaped exit."""
    r = Run()
    h = hashlib.sha1()
    n = 0
    buf = bytearray(1 << 20)
    t0 = time.perf_counter()
    p = subprocess.Popen([cli] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    fd = p.stdout.fileno()
    while True:
        k = os.readv(fd, [buf])
        if k == 0:
            break
        h.update(memoryview(buf)[:k])
        n += k
    _, status, ru = os.wait4(p.pid, 0)
    r.wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    r.err = p.stderr.read().decode(errors="replace").strip()
    p.stdout.close()
    p.stderr.close()
    r.rss_mb = ru.ru_maxrss / 1024.0
    r.length, r.sha1, r.rc = n, h.hexdigest(), p.returncode
    return r


def run_cli_capture(cli, qfile, doc):
    return subprocess.run([cli, "run", qfile, doc], check=True,
                          stdout=subprocess.PIPE).stdout


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


# --------------------------------------------------------------------------
# Batch workloads: xqmft run processes


class BatchWorkload:
    """Whole rounds of `xqmft run`, one process per (query, input)."""

    kind = size = queries = reps = ref_kind = None

    def inputs(self, harness, seed, work):
        self.doc = gen(harness, self.kind, self.size, seed, work)
        self.doc_bytes = os.path.getsize(self.doc)
        self.qfiles = {q: query_file(work, q) for q in self.queries}
        self.pretok = None        # the token cache, when the input is one
        self.input_path = self.doc

    def references(self, harness, seed, work, rebuild=False):
        self.inputs(harness, seed, work)
        cmd = [sys.executable, os.path.join(HERE, "reference.py"), "expect",
               self.ref_kind, self.doc, os.path.join(WORK, "refcache")]
        if rebuild:
            cmd.append("--rebuild")
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE).stdout
        return {q: reference.Expect.from_json(v)
                for q, v in json.loads(out).items()}

    def measure(self, cli, harness, seed, seconds, work, tally):
        refs = self.references(harness, seed, work)
        t0 = time.perf_counter()
        setup = self.setup(cli)
        setup_s = time.perf_counter() - t0
        tally.run("set-up", setup, refs.get(self.setup_query))
        ops = []
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            for q in self.queries:
                r = run_cli(cli, ["run", self.qfiles[q], self.input_path])
                tally.run(q, r, refs[q])
                ops.append(r)
        walls = [r.wall for r in ops]
        busy = sum(walls)
        n = len(self.queries)
        per_query = {q: 1e3 * statistics.median(walls[i::n])
                     for i, q in enumerate(self.queries)}
        log("perfbench: %d runs in %.1f s; per query median wall (ms): %s" % (
            len(ops), busy, ", ".join("%s %.1f" % kv
                                      for kv in per_query.items())))
        # Rates are those of a typical round, from each query's median run,
        # so a stall that hits one run does not move them.
        round_s = sum(per_query.values()) / 1e3
        return {
            "setup_s": (setup_s, "s"),
            "throughput_mb_s": (n * self.doc_bytes / MB / round_s, "MB/s"),
            "peak_rss_mb": (max(r.rss_mb for r in ops + [setup]), "MB"),
            "latency_p50_ms": (1e3 * statistics.median(walls), "ms"),
            # A 20 s run gives each query 6-14 runs: too few for a 99th
            # percentile, whose nearest rank is then the one slowest run.
            # The tail reported is the slowest query's median run.
            "latency_p99_ms": (max(per_query.values()), "ms"),
            "capacity_rps": (n / round_s, "req/s"),
        }

    def trace(self, cli, harness, seed, seconds, work, tally):
        refs = self.references(harness, seed, work)
        tally.run("set-up", self.setup(cli), refs.get(self.setup_query))
        out_dir = os.path.join(work, "trace-out")
        os.makedirs(out_dir, exist_ok=True)
        tr = harness_trace(harness, self.doc, self.queries, self.qfiles,
                           self.reps, out_dir, pretok=self.pretok)
        check_trace_outputs(tr, out_dir, refs, b"\n", tally)
        cli_ms = {}
        for q in self.queries:
            walls = []
            for _ in range(CLI_REPS):
                r = run_cli(cli, ["run", self.qfiles[q], self.input_path])
                tally.run(q, r, refs[q])
                walls.append(r.wall)
            cli_ms[q] = 1e3 * statistics.median(walls)
        metrics = layer_metrics(tr, cli_ms, self.pretok is not None)
        metrics.update(serve_trace(cli, ServeMix(harness, seed, work), 3,
                                   tally))
        return metrics


class XmarkSelect(BatchWorkload):
    kind, size, reps = "xmark", 64 * MIB, 3
    queries = ("q01", "q02", "q04", "q13", "q16", "q17")
    ref_kind = "xmark"
    setup_query = "q01"

    def setup(self, cli):
        # No cache to build: the set-up is the first (untimed) run, which
        # maps the document and faults its pages in.
        return run_cli(cli, ["run", self.qfiles[self.setup_query], self.doc])


class DeepCopy(BatchWorkload):
    kind, size, reps = "treebank", 16 * MIB, 3
    queries = ("double", "fourstar", "deepdup")
    ref_kind = "deep"
    setup_query = None  # its output is the empty query's

    def inputs(self, harness, seed, work):
        super().inputs(harness, seed, work)
        self.pretok = self.input_path = os.path.join(work, "doc.ptk")
        if os.path.exists(self.pretok):
            os.remove(self.pretok)
        self.empty = os.path.join(work, "empty.xq")
        with open(self.empty, "w") as f:
            f.write(EMPTY_QUERY)

    def setup(self, cli):
        # Token-cache build: tokenize the XML once into doc.ptk.
        return run_cli(cli, ["run", "--pretok-cache", self.pretok, self.empty,
                             self.doc])


# --------------------------------------------------------------------------
# The traced run's in-process side


def harness_trace(harness, doc, queries, qfiles, reps, out_dir, pretok=None):
    cmd = [harness, "trace", "--doc", doc, "--reps", str(reps), "--gcx",
           "--out-dir", out_dir]
    if pretok:
        cmd += ["--pretok", pretok]
    cmd += ["%s=%s" % (q, qfiles[q]) for q in queries]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE).stdout
    return json.loads(out)


def check_trace_outputs(tr, out_dir, refs, tail, tally):
    """Checks the harness's outputs against the references, and that its
    counts agree across layers: the events the traced run's tap saw enter
    the engine equal the events the lexer (or replay) produced, and the
    bytes it saw leave the engine equal the CountingSink's total."""
    for q, v in tr["queries"].items():
        if v["tap_events"] != tr["doc"]["events"] or \
                v["tap_bytes"] != v["output_bytes"]:
            tally.problem("harness %s: layer totals disagree: %d events in "
                          "vs %d lexed, %d bytes out vs %d counted" % (
                              q, v["tap_events"], tr["doc"]["events"],
                              v["tap_bytes"], v["output_bytes"]))
        path = os.path.join(out_dir, q + ".out")
        with open(path, "rb") as f:
            got = reference.Expect.of_parts(
                itertools.chain(iter(lambda: f.read(1 << 20), b""), [tail]))
        os.remove(path)
        tally.attempted += 1
        if not refs[q].matches(got.length, got.sha1):
            tally.problem("harness %s: output differs from the reference" % q)


# The ladder (source + engine + sink) plus the remainder (process start,
# compile, output pipe) must account for the CLI's wall time; a remainder
# beyond this share of it (plus 5 ms) is reported on stderr.
LADDER_TOLERANCE = 0.10
CLI_REPS = 5  # CLI runs per query in the traced run (median)


def layer_metrics(tr, cli_ms, from_cache):
    """Per-layer metrics from one harness trace, summed over the queries of
    one round (the unit the end-to-end metrics are made of)."""
    qs = tr["queries"]
    doc = tr["doc"]

    def total(key):
        return sum(v[key] for v in qs.values())

    source = "replay_ms" if from_cache else "lex_ms"
    engine = {q: v["count_ms"] - v["replay_ms"] for q, v in qs.items()}
    sink = {q: v["serial_ms"] - v["count_ms"] for q, v in qs.items()}
    ladder = {q: v[source] + engine[q] + sink[q] for q, v in qs.items()}
    remainder = {q: cli_ms[q] - ladder[q] for q in qs}
    log("perfbench: ladder per query (ms), source = %s" % (
        "replay" if from_cache else "lex"))
    log("  %-9s %8s %8s %8s %8s %8s %9s %8s %7s %8s %8s" % (
        "query", "source", "engine", "sink", "ladder", "cli", "remainder",
        "rem %", "lowered", "in-proc", "gcx"))
    for q, v in qs.items():
        log("  %-9s %8.1f %8.1f %8.1f %8.1f %8.1f %9.1f %7.1f%% %7s %8.1f %8s"
            % (q, v[source], engine[q], sink[q], ladder[q], cli_ms[q],
               remainder[q],
               100.0 * remainder[q] / cli_ms[q], v["lowered"], v["e2e_ms"],
               "%.1f" % v["gcx_ms"] if v["gcx_ms"] >= 0 else "n/a"))
    for q in qs:
        if abs(remainder[q]) > LADDER_TOLERANCE * cli_ms[q] + 5.0:
            log("perfbench: WARNING: the %s ladder leaves %.1f ms of the "
                "CLI's %.1f ms unaccounted (tolerance %.0f%% + 5 ms)" % (
                    q, remainder[q], cli_ms[q], 100 * LADDER_TOLERANCE))
    lowered = [v["lowered"] for v in qs.values()]
    m = {
        "xml.lex_ms": doc["lex_ms"],
        "xml.lex_mb_s": doc["bytes"] / MB / (doc["lex_ms"] / 1e3),
        "xml.events": doc["events"],
        "xml.replay_ms": doc["replay_ms"],
        "xml.sink_ms": sum(sink.values()),
        "xml.output_bytes": total("output_bytes"),
        "stream.engine_ms": sum(engine.values()),
        "stream.rule_applications": total("rule_applications"),
        "stream.cells_arena": total("cells_arena"),
        "stream.cells_refcounted": total("cells_refcounted"),
        "stream.exprs_created": total("exprs_created"),
        "stream.bridge_runs": total("bridge_runs"),
        "stream.peak_tracked_bytes": max(v["peak_tracked_bytes"]
                                         for v in qs.values()),
        "stream.bytes_in_at_first_output": total("bytes_in_at_first_output"),
        "xquery.parse_ms": total("parse_ms"),
        "translate.translate_ms": total("translate_ms"),
        "mft.optimize_ms": total("optimize_ms"),
        "mft.rules": total("rules"),
        "lower.lower_ms": total("lower_ms"),
        "core.compile_ms": total("compile_ms"),
        "lower.full_plans": lowered.count("full"),
        "lower.hybrid_plans": lowered.count("hybrid"),
        "lower.table_plans": lowered.count("table"),
        "multiquery.shared_pass_ms": tr["multi"]["shared_pass_ms"],
        "multiquery.separate_ms": tr["multi"]["separate_ms"],
        "multiquery.events_fed": tr["multi"]["events_fed"],
        "multiquery.events_skipped": tr["multi"]["events_skipped"],
        "service.execute_ms": total("service_hit_ms"),
        "service.cache_hits": tr["service"]["cache_hits"],
        "service.cache_misses": tr["service"]["cache_misses"],
        "gcx.run_ms": sum(v["gcx_ms"] for v in qs.values()
                          if v["gcx_ms"] >= 0),
        "trace.overhead_ms": total("e2e_traced_ms") - total("e2e_ms"),
        "ladder.cli_ms": sum(cli_ms.values()),
        "ladder.remainder_ms": sum(remainder.values()),
    }
    return m


# --------------------------------------------------------------------------
# serve-mixed: one server, one client process, up to 4 connections

SERVE_DOCS = 8          # 1 MiB XMark documents; index 0 is the hot one
SERVE_DOC_BYTES = 1 * MIB
SERVE_WORKERS = 2
SERVE_CONNS = 4
SERVE_WINDOW_MS = 2     # --batch-window-ms
OPEN_RATE = 150.0       # open-loop requests per second
ROUND = 120             # requests per round: 96 single, 12 novel, 12 batch
SELECTIVE = ("q01", "q02", "q04", "q13", "q16", "q17")


class Request:
    __slots__ = ("kind", "queries", "doc", "line", "bodies", "due", "done",
                 "headers", "ok", "error")


class ServeMix:
    """The request mix, its inputs and its reference bodies."""

    def __init__(self, harness, seed, work):
        self.rng = random.Random(seed)
        self.docs = [gen(harness, "xmark", SERVE_DOC_BYTES,
                         seed * 1000 + i, work, "serve-%d.xml" % i)
                     for i in range(SERVE_DOCS)]
        self.doc_bytes = [os.path.getsize(d) for d in self.docs]
        self.bodies = [reference.xmark_bodies(d) for d in self.docs]
        self.novel = 0

    def next_round(self):
        """A fresh round of 120 requests whose make-up the seed cannot
        change: every query 16 times as a single and twice as a novel text,
        12 batches of three queries (each query in 6), and half of each kind
        on the hot document. The seeded generator picks the other documents
        and the order, anew for every round, so no one order sets the
        tail."""
        specs = []
        for kind, per_query in (("single", 16), ("novel", 2)):
            for q in SELECTIVE:
                specs += [(kind, (q,)) for _ in range(per_query)]
        n = len(SELECTIVE)
        specs += [("batch", (SELECTIVE[i % n], SELECTIVE[(i + 1) % n],
                             SELECTIVE[(i + 3) % n])) for i in range(12)]
        out = []
        for i, (kind, qs) in enumerate(specs):
            doc = 0 if i % 2 == 0 else self.rng.randrange(1, SERVE_DOCS)
            out.append((kind, qs, doc))
        self.rng.shuffle(out)
        return [self.request(spec) for spec in out]

    def request(self, spec):
        """A fresh Request for one spec; novel specs get a query text never
        sent before (the root constructor renamed), so they compile."""
        kind, qs, doc = spec
        r = Request()
        r.kind, r.queries, r.doc = kind, qs, doc
        path = self.docs[doc]
        if kind == "batch":
            r.line = json.dumps({"queries": [{"query": QUERIES[q], "id": i}
                                             for i, q in enumerate(qs)],
                                 "inputs": [path]})
            r.bodies = [self.bodies[doc][q] for q in qs]
        elif kind == "novel":
            self.novel += 1
            q = qs[0]
            root = reference.ROOT_TAG[q]
            fresh = "%sn%d" % (root, self.novel)
            r.line = json.dumps({"query": QUERIES[q].replace(root, fresh),
                                 "inputs": [path]})
            body = self.bodies[doc][q]
            r.bodies = [b"<%s>%s</%s>" % (fresh.encode(),
                                          body[len(root) + 2:-len(root) - 3],
                                          fresh.encode())]
        else:
            r.line = json.dumps({"query": QUERIES[qs[0]], "inputs": [path]})
            r.bodies = [self.bodies[doc][qs[0]]]
        r.line = (r.line + "\n").encode()
        r.headers = []
        r.ok = True
        r.error = None
        r.due = r.done = None
        return r

    def xml_bytes(self, r):
        return self.doc_bytes[r.doc]


class Conn:
    """One client connection: pipelined requests, responses in order."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending = []   # Requests awaiting (part of) their response
        self.need = None    # payload bytes still expected for the head

    def send(self, r):
        self.out += r.line
        self.pending.append(r)
        self.flush()

    def flush(self):
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:n]

    def receive(self, now, tally):
        """Reads what is available; returns the Requests completed."""
        done = []
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return done
        if not data:
            raise ConnectionError("server closed the connection")
        self.inbuf += data
        while self.pending:
            r = self.pending[0]
            if self.need is None:
                nl = self.inbuf.find(b"\n")
                if nl < 0:
                    break
                header = json.loads(self.inbuf[:nl])
                del self.inbuf[:nl + 1]
                r.headers.append(header)
                if header.get("ok") and "bytes" in header:
                    self.need = header["bytes"]
                    continue
                if not header.get("ok"):
                    r.error = json.dumps(header)[:200]
                if self._complete(r, header):
                    done.append(r)
                continue
            if len(self.inbuf) < self.need + 1:
                break
            body = bytes(self.inbuf[:self.need])
            if self.inbuf[self.need] != 0x0A:
                r.ok = False
                tally.problem("%s response: payload not followed by a "
                              "newline (bytes header wrong)" % r.kind)
            del self.inbuf[:self.need + 1]
            self.need = None
            header = r.headers[-1]
            member = header.get("id", 0) if r.kind == "batch" else 0
            if body != r.bodies[member]:
                r.ok = False
                tally.problem("%s %s on doc %d: response differs from the "
                              "reference" % (r.kind, r.queries[member], r.doc))
            if self._complete(r, header):
                done.append(r)
        for r in done:
            r.done = now
        return done

    def _complete(self, r, header):
        """A single request ends with its one response; a batch with its
        summary line after one response per member, or with one
        request-level rejection (a header without a member id)."""
        if r.kind == "batch" and not header.get("batch") and "id" in header:
            return False
        self.pending.pop(0)
        return True


class Server:
    def __init__(self, cli, window_ms):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [cli, "serve", "--port", "0", "--workers", str(SERVE_WORKERS),
             "--batch-window-ms", str(window_ms)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening port="):
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.split("=", 1)[1])

    def stats(self):
        with socket.create_connection(("127.0.0.1", self.port)) as s:
            s.sendall(b'{"cmd":"server_stats"}\n')
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)["server"]

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM (graceful drain), then reap; SIGKILL if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def drive(conns, reqs, open_loop, tally, deadline=None):
    """Sends `reqs` over `conns`. Open loop: each request goes out at its
    `due` time on connection i % len(conns), whatever is outstanding.
    Closed loop: a connection sends its next request only after the last
    one completed. Returns how late the open-loop generator ran (s)."""
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    todo = list(reqs)
    nxt = 0
    outstanding = 0
    lateness = 0.0
    idle = list(conns)
    while nxt < len(todo) or outstanding:
        now = time.perf_counter()
        if open_loop:
            while nxt < len(todo) and todo[nxt].due <= now:
                r = todo[nxt]
                lateness = max(lateness, now - r.due)
                conns[nxt % len(conns)].send(r)
                nxt += 1
                outstanding += 1
        else:
            while idle and nxt < len(todo):
                r = todo[nxt]
                r.due = now
                idle.pop().send(r)
                nxt += 1
                outstanding += 1
        timeout = 0.05
        if open_loop and nxt < len(todo):
            timeout = max(0.0, min(timeout, todo[nxt].due - now))
        for key, _ in sel.select(timeout):
            c = key.data
            done = c.receive(time.perf_counter(), tally)
            outstanding -= len(done)
            if done and not c.pending:
                idle.append(c)
        for c in conns:
            if c.out:
                c.flush()
        if deadline is not None and time.perf_counter() > deadline:
            raise RuntimeError("serve phase overran its deadline")
    sel.close()
    return lateness


def serve_session(cli, mix, seconds, tally):
    """Starts a server, warms it, runs the open- then the closed-loop phase
    and returns the raw results."""
    server = Server(cli, SERVE_WINDOW_MS)
    res = {}
    gc.disable()  # no collector pauses inside the client's timings
    try:
        conns = [Conn(server.port) for _ in range(SERVE_CONNS)]
        # Warm-up: every selective query once on every document, closed
        # loop on one connection (fills the query cache and the page cache).
        warm = [mix.request(("single", (q,), d)) for d in range(SERVE_DOCS)
                for q in SELECTIVE]
        drive(conns[:1], warm, False, tally)
        res["setup_s"] = time.perf_counter() - server.t0
        hard = time.perf_counter() + 10 * seconds + 60

        n_open = max(1, int(0.5 * seconds * OPEN_RATE) // ROUND) * ROUND
        open_reqs = [r for _ in range(n_open // ROUND)
                     for r in mix.next_round()]
        t0 = time.perf_counter() + 0.05
        for i, r in enumerate(open_reqs):
            r.due = t0 + i / OPEN_RATE
        res["lateness_s"] = drive(conns, open_reqs, True, tally, hard)
        res["open"] = open_reqs

        closed = []
        rounds = []  # (seconds, XML bytes) of each closed-loop round
        c0 = time.perf_counter()
        c_end = c0 + max(0.5, seconds - (c0 - server.t0))
        while not closed or time.perf_counter() < c_end:
            batch = mix.next_round()
            r0 = time.perf_counter()
            drive(conns, batch, False, tally, hard)
            rounds.append((time.perf_counter() - r0,
                           sum(mix.xml_bytes(r) for r in batch)))
            closed += batch
        res["closed_s"] = time.perf_counter() - c0
        res["closed"] = closed
        res["rounds"] = rounds
        res["stats"] = server.stats()
        res["vm_hwm_mb"] = server.vm_hwm_mb()
        for c in conns:
            c.sock.close()
    finally:
        gc.enable()
        server.stop()
    everything = warm + open_reqs + closed
    sent = len(everything)
    served = sum(r.error is None for r in everything)
    tally.attempted += sent
    for r in everything:
        if r.error is not None:
            tally.fail("%s request: %s" % (r.kind, r.error))
    # Independent totals must agree: the server's admissions and successes
    # against what this client sent and counted.
    st = res["stats"]
    if st["admitted"] != sent or st["completed_ok"] != served:
        tally.problem("server totals disagree: admitted=%d completed_ok=%d "
                      "but the client sent %d and counted %d ok" % (
                          st["admitted"], st["completed_ok"], sent, served))
    return res


class ServeMixed:
    def measure(self, cli, harness, seed, seconds, work, tally):
        mix = ServeMix(harness, seed, work)
        res = serve_session(cli, mix, seconds, tally)
        lat = [r.done - r.due for r in res["open"]]
        closed = res["closed"]
        rounds = res["rounds"]
        log("perfbench: open loop %d requests at %.0f/s, generator at most "
            "%.2f ms late; closed loop %d requests in %.2f s; server %s" % (
                len(res["open"]), OPEN_RATE, 1e3 * res["lateness_s"],
                len(closed), res["closed_s"],
                json.dumps({k: res["stats"][k] for k in (
                    "admitted", "completed_ok", "coalesced_requests",
                    "parses_saved", "ops_runs", "hybrid_runs")})))
        # Tail and rates per round of the mix, reported as the median over
        # rounds: a machine-level stall that hits one round does not move
        # them. Each open-loop round's p99 is its nearest-rank 99th
        # percentile (the second slowest of 120 requests).
        p99 = statistics.median(percentile(lat[i:i + ROUND], 99)
                                for i in range(0, len(lat), ROUND))
        return {
            "setup_s": (res["setup_s"], "s"),
            "throughput_mb_s": (statistics.median(b / MB / t
                                                  for t, b in rounds),
                                "MB/s"),
            "peak_rss_mb": (res["vm_hwm_mb"], "MB"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p99_ms": (1e3 * p99, "ms"),
            "capacity_rps": (ROUND / statistics.median(t for t, _ in rounds),
                             "req/s"),
        }

    def references(self, harness, seed, work, rebuild=False):
        mix = ServeMix(harness, seed, work)
        return {"doc%d.%s" % (i, q): reference.Expect.of(body)
                for i, bodies in enumerate(mix.bodies)
                for q, body in bodies.items()}

    def trace(self, cli, harness, seed, seconds, work, tally):
        mix = ServeMix(harness, seed, work)
        hot = mix.docs[0]
        qfiles = {q: query_file(work, q) for q in SELECTIVE}
        out_dir = os.path.join(work, "trace-out")
        os.makedirs(out_dir, exist_ok=True)
        tr = harness_trace(harness, hot, SELECTIVE, qfiles, 15, out_dir)
        bodies = mix.bodies[0]
        refs = {q: reference.Expect.of(b) for q, b in bodies.items()}
        check_trace_outputs(tr, out_dir, refs, b"", tally)
        cli_ms = {}
        for q in SELECTIVE:
            expect = reference.Expect.of(bodies[q] + b"\n")
            walls = []
            for _ in range(CLI_REPS):
                r = run_cli(cli, ["run", qfiles[q], hot])
                tally.run(q, r, expect)
                walls.append(r.wall)
            cli_ms[q] = 1e3 * statistics.median(walls)
        metrics = layer_metrics(tr, cli_ms, False)
        metrics.update(serve_trace(cli, mix, seconds, tally))
        return metrics


def serve_trace(cli, mix, seconds, tally):
    """The serving half of every traced run: a serve session (the whole
    workload on serve-mixed, a 3 s one elsewhere) read for the layers the
    server reports."""
    res = serve_session(cli, mix, seconds, tally)
    singles = [r for r in res["open"]
               if r.kind != "batch" and r.ok and r.error is None]
    outside = [1e3 * (r.done - r.due) - r.headers[0]["compile_ms"]
               - r.headers[0]["stream_ms"] for r in singles]
    heads = [h for r in res["open"] + res["closed"] for h in r.headers
             if "bytes" in h]
    st = res["stats"]
    return {
        "service.compile_ms": statistics.mean(h["compile_ms"] for h in heads),
        "service.stream_ms": statistics.mean(h["stream_ms"] for h in heads),
        "net.outside_ms": statistics.median(outside),
        "net.coalesced_requests": st["coalesced_requests"],
        "net.parses_saved": st["parses_saved"],
        "net.ops_runs": st["ops_runs"],
        "net.hybrid_runs": st["hybrid_runs"],
        "net.table_runs": st["table_runs"],
    }


class Tally:
    """Operations attempted and failed, and check problems. A failed
    operation is one the program reported as failed (non-zero exit, an
    error response); a problem is a wrong output or a disagreeing total,
    and makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        if self.failed <= 10:
            log("perfbench: operation failed: " + what)

    def problem(self, what):
        self.problems.append(what)

    def run(self, what, r, expect):
        """Tallies one CLI run; `expect` None checks only the exit code."""
        self.attempted += 1
        if r.rc != 0:
            self.fail("%s: exit %s: %s" % (what, r.rc, r.err[:200]))
        elif expect is not None and not expect.matches(r.length, r.sha1):
            self.problem("%s: output of %d bytes differs from the reference "
                         "(%d bytes)" % (what, r.length, expect.length))


WORKLOADS = {
    "xmark-select": XmarkSelect(),
    "deep-copy": DeepCopy(),
    "serve-mixed": ServeMixed(),
}


def benchmark_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main(argv):
    global SERVE_WINDOW_MS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window-ms", type=int, default=SERVE_WINDOW_MS,
                    help="the server's --batch-window-ms (diagnosis only)")
    a = ap.parse_args(argv)
    SERVE_WINDOW_MS = a.window_ms

    harness, cli = build()
    work = work_dir(a.workload, a.seed)
    w = WORKLOADS[a.workload]
    tally = Tally()
    try:
        if a.trace:
            units = benchmark_metrics("per_layer")
            values = w.trace(cli, harness, a.seed, a.seconds, work, tally)
            metrics = {k: (v, units[k]) for k, v in values.items()}
        else:
            units = benchmark_metrics("end_to_end")
            metrics = w.measure(cli, harness, a.seed, a.seconds, work, tally)
    finally:
        cleanup(work)
    if set(metrics) != set(units) or any(
            metrics[k][1] != units[k] for k in units):
        log("perfbench: metrics do not match BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(units)))
        return 1
    for p in tally.problems[:20]:
        log("perfbench: CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
