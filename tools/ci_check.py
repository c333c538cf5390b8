#!/usr/bin/env python3
"""CI assertion gates for lclbench smoke snapshots.

Each subcommand checks one smoke JSON emitted by the workflow in
.github/workflows/ci.yml (the assertions used to live there as inline
heredocs; keeping them here makes them reviewable, reusable locally,
and identical across workflows):

    ci_check.py matrix   smoke_matrix.json    solver-matrix coverage
    ci_check.py problems smoke_problems.json  sweep agreement + certification
    ci_check.py all      smoke_all.json       full-registry run validity
    ci_check.py service  responses.jsonl      lcld replay of the pinned script
    ci_check.py service-tcp ./build/lcld tests/golden/service_smoke.jsonl
                                              same replay over TCP (pipelined)

`service-tcp` is self-contained: it launches the given lcld binary on an
ephemeral TCP port, sends the pinned script's two classifies one at a
time and the rest as one pipelined burst (exercising the transport
supervisor's in-flight window and ordered write backlog), validates the
responses with the same assertions as `service`, then SIGTERMs the
daemon and requires a clean drain (exit 0).

Exit status: 0 when every assertion holds, 1 with a message otherwise.
Run locally with e.g.:

    ./build/lclbench --run solver_matrix --n 0.02 --seed 5 \
        --json smoke_matrix.json
    python3 tools/ci_check.py matrix smoke_matrix.json
"""

import json
import re
import signal
import socket
import subprocess
import sys


def check_matrix(d):
    """Tiny-n certification of the solver x family cross-product:
    every compatible cell ran, checked, and the matrix can't silently
    shrink below its historical floor."""
    m = d["scenarios"][0]["metrics"]
    assert m["cells_check_failed"] == 0, m
    assert m["cells_ok"] == m["cells_total"], m
    assert m["cells_ok"] >= 30, m
    assert len(d["algos"]) >= 10, d["algos"]
    print(f"{int(m['cells_ok'])}/{int(m['cells_total'])} cells certified")


def check_problems(d):
    """Generator -> classifier -> certified agreement on the sampled
    LCL sweep: deterministic in (--problem-seed, --n), so exact
    agreement is assertable."""
    assert d["problems"] == 20 and d["problem_seed"] == 1, d
    m = d["scenarios"][0]["metrics"]
    assert m["problems_total"] >= 20, m
    assert m["problems_agree"] == m["problems_total"], m
    assert m["problems_uncertified"] == 0, m
    print(f"{int(m['problems_agree'])}/{int(m['problems_total'])} "
          "problems agree, all runs certified")


def check_all(d):
    """Every registered scenario ran end to end and every run is
    schema-complete and checker-valid."""
    assert d["seed"] == 7, d["seed"]
    assert len(d["families"]) >= 6, d["families"]
    names = {s["name"] for s in d["scenarios"]}
    assert "family_sweep" in names and "engine_micro" in names, names
    assert "problem_sweep" in names, names
    assert d["schema"] == "lclbench-v3", d["schema"]
    bad = [(s["name"], se["title"], r.get("status"))
           for s in d["scenarios"]
           for se in s["series"]
           for r in se["runs"] if not r["valid"]]
    assert not bad, bad[:5]
    runs = [r for s in d["scenarios"] for se in s["series"]
            for r in se["runs"]]
    assert all("term_hist" in r and "term_p99" in r and
               "reps" in r and "na_stddev" in r for r in runs)
    print(f"{len(d['scenarios'])} scenarios, all runs valid")


def check_service(lines):
    """lcld --stdio replay of tests/golden/service_smoke.jsonl: one
    response line per request line, in order. The script sends the same
    classify twice (the second must be served from cache byte-identically),
    an info probe (which must see that hit), a solve that must certify,
    two malformed lines that must map to their typed errors, and a solve
    whose options cannot build (|gammas| != k-1) that must be rejected
    as bad_request before any instance is built."""
    rs = [json.loads(line) for line in lines]
    assert len(rs) == 7, f"expected 7 response lines, got {len(rs)}"
    assert lines[0] == lines[1], \
        f"repeated classify not byte-identical:\n{lines[0]}\n{lines[1]}"
    classify = rs[0]
    assert classify["ok"] and classify["type"] == "classify", classify
    assert classify["id"] == 1 and classify["key"], classify
    assert classify["predicted"], classify
    info = rs[2]
    assert info["ok"] and info["type"] == "info", info
    assert info["cache_hits"] >= 1, info
    assert info["cache_entries"] >= 1, info
    solve = rs[3]
    assert solve["ok"] and solve["type"] == "solve", solve
    assert solve["certified"] is True, solve
    assert solve["key"] == classify["key"], (solve, classify)
    assert not rs[4]["ok"] and rs[4]["error"] == "unknown_type", rs[4]
    assert rs[4]["id"] == 4, rs[4]
    assert not rs[5]["ok"] and rs[5]["error"] == "bad_json", rs[5]
    assert "id" not in rs[5], rs[5]
    assert not rs[6]["ok"] and rs[6]["error"] == "bad_request", rs[6]
    assert rs[6]["id"] == 5, rs[6]
    print(f"7/7 service responses ok, cache_hits={int(info['cache_hits'])}")


def check_service_tcp(lcld_path, script_path):
    """End-to-end TCP replay: launch lcld on an ephemeral port, send the
    pinned script over a single connection, validate with the same
    assertions as the stdio replay, then SIGTERM-drain.

    The two identical classifies go one at a time, each after the
    previous reply: with two workers, a burst lets both miss the cache
    together and lets `info` run before the second lookup, and lcld
    promises no order between concurrent requests. The remaining lines
    (info, the slow solve, the three rejected lines) go as ONE pipelined
    burst, whose responses must still come back in request order."""
    proc = subprocess.Popen(
        [lcld_path, "--tcp", "127.0.0.1:0", "--threads", "2"],
        stderr=subprocess.PIPE, text=True)
    try:
        announce = proc.stderr.readline()
        m = re.search(r"tcp://[0-9.]+:(\d+)", announce)
        assert m, f"no endpoint announcement on stderr: {announce!r}"
        port = int(m.group(1))
        with open(script_path, "rb") as f:
            requests = [l for l in f.read().splitlines() if l.strip()]
        conn = socket.create_connection(("127.0.0.1", port), timeout=30)
        conn.settimeout(30)
        buf = b""

        def send_and_wait(lines):
            nonlocal buf
            conn.sendall(b"".join(r + b"\n" for r in lines))
            want = buf.count(b"\n") + len(lines)
            while buf.count(b"\n") < want:
                chunk = conn.recv(1 << 16)
                assert chunk, "daemon closed the connection mid-replay"
                buf += chunk

        send_and_wait(requests[:1])
        send_and_wait(requests[1:2])
        send_and_wait(requests[2:])
        conn.close()
        check_service([l.decode() for l in buf.splitlines()])
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, \
            f"lcld did not drain cleanly: exit {proc.returncode}"
        print(f"tcp replay ok: 2 sequential classifies, pipelined burst "
              f"of {len(requests) - 2} requests, ordered responses, "
              "clean SIGTERM drain")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


CHECKS = {
    "matrix": check_matrix,
    "problems": check_problems,
    "all": check_all,
    "service": check_service,
}


def main(argv):
    if len(argv) == 4 and argv[1] == "service-tcp":
        try:
            check_service_tcp(argv[2], argv[3])
        except (OSError, ValueError, KeyError, AssertionError,
                subprocess.TimeoutExpired) as e:
            print(f"ci_check service-tcp: FAILED: {e!r}", file=sys.stderr)
            return 1
        return 0
    if len(argv) != 3 or argv[1] not in CHECKS:
        subs = "|".join(sorted(CHECKS))
        print(f"usage: {argv[0]} {{{subs}}} <snapshot.json>\n"
              f"       {argv[0]} service-tcp <lcld> <script.jsonl>",
              file=sys.stderr)
        return 1
    try:
        with open(argv[2]) as f:
            if argv[1] == "service":
                # Line-delimited responses, not one JSON document.
                d = [line.rstrip("\n") for line in f if line.strip()]
            else:
                d = json.load(f)
        CHECKS[argv[1]](d)
    except (OSError, ValueError, KeyError, AssertionError) as e:
        print(f"ci_check {argv[1]}: FAILED: {e!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
