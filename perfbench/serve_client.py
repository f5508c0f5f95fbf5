"""serve-mixed: `sptc serve --jobs 2` as a child process, driven over one
pipe by a single-threaded closed-loop client with 2 requests in flight.

A round is 25 requests in a seeded order: 20 warm `workload` requests for
the suite programs the set-up compiled (cache hits), and 5 `compile`
requests for programs generated here, each unique in the whole run (cache
misses that store).  Rounds repeat until --seconds have passed.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time

WARM = ("gcc", "parser")  # the two cheapest suite programs to compile
WARM_PER_ROUND = 20
COLD_PER_ROUND = 5
IN_FLIGHT = 2
SERVER_JOBS = 2


def cold_source(seed, index):
    """A small MiniC program unique to (seed, index): one template whose
    constants vary, so every program costs about the same to compile and
    none shares a cache key with another."""
    rng = random.Random(seed * 1_000_003 + index)
    k1 = rng.randrange(3, 61, 2)
    k2 = rng.randrange(1, 997)
    k3 = rng.randrange(1, 255)
    fill = rng.randrange(1, 100_000)
    return """int N = 48;
int a[48];
int b[48];
int hist[16];

int mix(int x) {
  return (x * %d + %d) & 1023;
}

void main() {
  int i;
  int j;
  int acc = %d;
  srand(%d);
  for (i = 0; i < N; i = i + 1) { a[i] = rand() & 255; b[i] = 0; }
  for (j = 0; j < 24; j = j + 1) {
    for (i = 0; i < N; i = i + 1) {
      int v = mix(a[i] + j);
      b[i] = b[i] + v;
      hist[v & 15] = hist[v & 15] + 1;
      acc = acc + (b[i] & %d);
    }
  }
  for (i = 0; i < 16; i = i + 1) { acc = acc + hist[i] * i; }
  print_int(acc);
}
""" % (k1, k2, index, fill, k3)


def percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    def __init__(self, sptc, cache_dir, env):
        self.proc = subprocess.Popen(
            [sptc, "serve", "--jobs", str(SERVER_JOBS), "--cache-dir", cache_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def send(self, req):
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("sptc serve closed its output")
        return len(line), json.loads(line)

    def call(self, req):
        self.send(req)
        return self.recv()[1]

    def stop(self):
        try:
            self.call({"op": "shutdown", "id": "shutdown"})
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def set_up(sptc, cache_dir, env, servers):
    """Start a server on a fresh cache (added to [servers]) and compile the
    warm programs through it, both at once.  Returns the server and each
    program's reply."""
    server = Server(sptc, cache_dir, env)
    servers.append(server)
    for name in WARM:
        server.send({"op": "workload", "name": name, "id": "setup-" + name})
    replies = {}
    for _ in WARM:
        _, rep = server.recv()
        replies[rep.get("id")] = rep
    return server, {name: replies.get("setup-" + name) for name in WARM}


def run(args, env, tmp, sptc, harness):
    """One serve-mixed run; no server outlives it, whatever goes wrong."""
    servers = []
    try:
        return drive(args, env, tmp, sptc, harness, servers)
    finally:
        for server in servers:
            server.kill()


def drive(args, env, tmp, sptc, harness, servers):
    failures = []

    def check(what, ok):
        if not ok:
            failures.append(what)

    # set up three times, each on a fresh cache; keep the last server
    setups = []
    server = None
    for i in range(3):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        cache_dir = os.path.join(tmp, "cache-%d" % i)
        server, warm = set_up(sptc, cache_dir, env, servers)
        setups.append(time.perf_counter() - t0)
    for name, rep in warm.items():
        ok = (rep is not None and rep.get("ok") is True
              and rep.get("cache_hit") is False
              and rep.get("eval", {}).get("outputs_match") is True)
        if not ok:
            raise SystemExit("perfbench: set-up compile of %s failed: %r"
                             % (name, rep))

    rng = random.Random(args.seed)
    cold_dir = os.path.join(tmp, "cold")
    os.makedirs(cold_dir)
    sent = {}      # id -> (kind, program, send time)
    replies = {}   # id -> (latency s, bytes, reply)
    duplicates = []
    rounds = 0
    next_cold = 0
    in_flight = 0

    def receive():
        n, rep = server.recv()
        t = time.perf_counter()
        rid = rep.get("id")
        if rid in replies or rid not in sent:
            duplicates.append(rid)
        else:
            replies[rid] = (t - sent[rid][2], n, rep)

    t_start = time.perf_counter()
    while True:
        stream = [("warm", rng.choice(WARM)) for _ in range(WARM_PER_ROUND)]
        for _ in range(COLD_PER_ROUND):
            stream.append(("cold", "cold-%04d" % next_cold))
            next_cold += 1
        rng.shuffle(stream)
        for kind, prog in stream:
            rid = "%d-%d" % (rounds, len(sent))
            if kind == "warm":
                req = {"op": "workload", "name": prog, "id": rid}
            else:
                src = cold_source(args.seed, int(prog.split("-")[1]))
                with open(os.path.join(cold_dir, prog + ".c"), "w") as f:
                    f.write(src)
                req = {"op": "compile", "name": prog, "source": src, "id": rid}
            if in_flight == IN_FLIGHT:
                receive()
                in_flight -= 1
            sent[rid] = (kind, prog, time.perf_counter())
            server.send(req)
            in_flight += 1
        rounds += 1
        if time.perf_counter() - t_start >= args.seconds:
            break
    while in_flight:
        receive()
        in_flight -= 1
    t_total = time.perf_counter() - t_start

    stats = server.call({"op": "stats", "id": "stats"})
    rss = vm_hwm_mb(server.proc.pid)
    server.stop()

    # checks, after the timed region
    expected = json.loads(subprocess.run(
        [harness, "serve-expect", cold_dir], env=env, check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip().splitlines()[-1])
    if args.corrupt:
        first = sorted(expected)[0]
        expected[first] += 1
    check("replies not matching a request: %r" % duplicates, not duplicates)
    failed_ops = 0
    for rid, (kind, prog, _) in sent.items():
        got = replies.get(rid)
        bad = []
        if got is None:
            bad.append("no reply")
        else:
            rep = got[2]
            if rep.get("ok") is not True:
                bad.append("error reply %r" % rep.get("error"))
            elif rep.get("eval", {}).get("outputs_match") is not True:
                bad.append("outputs_match false")
            elif kind == "warm":
                if not (rep.get("cache_hit") is True or rep.get("coalesced") is True):
                    bad.append("warm request missed the cache")
                if rep.get("key") != warm[prog]["key"]:
                    bad.append("key differs from the set-up reply")
                if rep.get("report_text") != warm[prog]["report_text"]:
                    bad.append("report differs from the set-up reply")
            else:
                if rep.get("cache_hit") is not False:
                    bad.append("unique program hit the cache")
                instrs = rep.get("eval", {}).get("base", {}).get("instrs")
                if instrs != expected.get(prog):
                    bad.append("base instrs %r, engine counted %r"
                               % (instrs, expected.get(prog)))
        if bad:
            failed_ops += 1
            check("%s %s (%s): %s" % (kind, prog, rid, "; ".join(bad)), False)
    for f in failures:
        print("perfbench: check failed: " + f, file=sys.stderr)

    ok = [(sent[r][0], lat, n, rep) for r, (lat, n, rep) in replies.items()]
    lat_ms = [1000.0 * lat for _, lat, _, _ in ok]
    handle_ms = [1000.0 * rep.get("elapsed_s", 0.0) for _, _, _, rep in ok]
    wait_ms = [l - h for l, h in zip(lat_ms, handle_ms)]
    warm_ms = [1000.0 * lat for k, lat, _, _ in ok if k == "warm"]
    cold_ms = [1000.0 * lat for k, lat, _, _ in ok if k == "cold"]
    hits = sum(1 for _, _, _, rep in ok if rep.get("cache_hit") is True)
    coalesced = sum(1 for _, _, _, rep in ok if rep.get("coalesced") is True)
    profdb = stats.get("profdb", {}) if isinstance(stats.get("profdb"), dict) else {}

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": t_total / rounds,
        "op_p50_ms": statistics.median(lat_ms),
        "peak_rss_mb": rss,
    }
    layers = {}
    if args.trace:
        layers = json.loads(subprocess.run(
            [harness, "serve-layers", "--seed", str(args.seed), "--cache-dir",
             cache_dir], env=env, check=True, stdout=subprocess.PIPE,
            text=True).stdout.strip().splitlines()[-1])
        layers.update({
            "serve_rps": len(ok) / t_total,
            "serve_p50_ms": statistics.median(lat_ms),
            "serve_p95_ms": percentile(lat_ms, 0.95),
            "service.warm_p50_ms": statistics.median(warm_ms),
            "service.cold_p50_ms": statistics.median(cold_ms),
            "service.handle_p50_ms": statistics.median(handle_ms),
            "service.wait_p50_ms": statistics.median(wait_ms),
            "service.hit_ratio": hits / len(ok),
            "service.reply_bytes": statistics.mean(n for _, _, n, _ in ok),
            "service.coalesced": coalesced / rounds,
            "profdb.lookups": profdb.get("lookups", 0) / rounds,
        })
    return {"correct": not failures, "attempted": len(sent),
            "failed": failed_ops + (1 if duplicates else 0),
            "end_to_end": e2e, "per_layer": layers}
