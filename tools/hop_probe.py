"""Where one wire reply's time goes: a per-hop breakdown across both processes.

    python tools/hop_probe.py [TREE] [--n 48] [--reads 1100] [--warm 100]

Starts ``repro.service.cli serve --workload path:N`` from ``TREE/src``
(default: this checkout) in a child process with timestamp probes patched
in, prepares ``reach(src)`` from one connection of ``TREE``'s client, runs it
``--reads`` times (after ``--warm`` untimed reads) and prints the median of
each hop in milliseconds.  Both processes read ``time.perf_counter``, which
is ``CLOCK_MONOTONIC`` on Linux and so shared between them: a hop that
crosses the socket is the difference of two stamps taken on either side.
Requests go one at a time, so the k-th stamp of each kind belongs to the
k-th request.  The probes patch only names both the event-loop-task server
and the one-job-per-request server have, so two trees compare directly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Runs in the server child: stamp the request frame read, the engine call
#: and the reply write, serve until SIGTERM, then dump the stamps.
SERVER_PROBE = r"""
import asyncio, json, sys
from time import perf_counter
import repro.service.server as server
from repro.api.prepare import PreparedStatement
from repro.service.cli import main

stamps = {"read": [], "engine_in": [], "engine_out": [], "write": []}
read_frame = server.read_frame_async

async def read_frame_async(*args, **kwargs):
    frame = await read_frame(*args, **kwargs)
    if frame is not None and frame.get("op") == "execute_statement":
        stamps["read"].append(perf_counter())
    return frame

execute = PreparedStatement.execute

def timed_execute(self, *args, **kwargs):
    stamps["engine_in"].append(perf_counter())
    try:
        return execute(self, *args, **kwargs)
    finally:
        stamps["engine_out"].append(perf_counter())

write = asyncio.StreamWriter.write

def timed_write(self, data):
    t = perf_counter()
    if b'"total"' in data:
        stamps["write"].append(t)
    return write(self, data)

server.read_frame_async = read_frame_async
PreparedStatement.execute = timed_execute
asyncio.StreamWriter.write = timed_write
try:
    main(["serve", "--workload", f"path:{sys.argv[1]}", "--port", "0"])
finally:
    with open(sys.argv[2], "w") as out:
        json.dump(stamps, out)
"""

#: (hop, stamp it starts at, stamp it ends at), in request order.
HOPS = (
    ("client encode + send", "start", "send"),
    ("request reaches the loop", "send", "read"),
    ("loop to engine", "read", "engine_in"),
    ("engine", "engine_in", "engine_out"),
    ("engine to reply write", "engine_out", "write"),
    ("write to client reader", "write", "recv"),
    ("reader to caller", "recv", "woken"),
    ("client row decode", "woken", "done"),
)


def probe(tree: Path, n: int, reads: int, warm: int) -> dict:
    sys.path.insert(0, str(tree / "src"))
    import repro.service.client as client
    from repro.api import Q

    stamps = {"start": [], "send": [], "recv": [], "woken": [], "done": []}
    timing = [False]

    def stamp(kind: str) -> None:
        if timing[0]:
            stamps[kind].append(perf_counter())

    write_frame, read_frame = client.write_frame_sync, client.read_frame_sync
    request = client.RemoteConnection.request

    def write_frame_sync(sock, payload, *args):
        if payload.get("op") == "execute_statement":
            stamp("send")
        return write_frame(sock, payload, *args)

    def read_frame_sync(*args):
        frame = read_frame(*args)
        if frame is not None and "total" in frame:
            stamp("recv")
        return frame

    def timed_request(self, op, *args, **fields):
        reply = request(self, op, *args, **fields)
        if op == "execute_statement":
            stamp("woken")
        return reply

    client.write_frame_sync, client.read_frame_sync = write_frame_sync, read_frame_sync
    client.RemoteConnection.request = timed_request
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "server.json"
        server = subprocess.Popen(
            [sys.executable, "-c", SERVER_PROBE, str(n), str(dump)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        )
        try:
            found = re.search(r"listening on ([\w.]+):(\d+)", server.stdout.readline())
            if not found:
                raise RuntimeError("server did not announce its port")
            with client.connect(found.group(1), int(found.group(2))) as conn, \
                    conn.session() as s:
                reach = s.prepare(
                    Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")))
                for i in range(warm + reads):
                    timing[0] = i >= warm
                    stamp("start")
                    reach.execute(src=i % (n - 1)).fetchall()
                    stamp("done")
        finally:
            client.write_frame_sync, client.read_frame_sync = write_frame, read_frame
            client.RemoteConnection.request = request
            server.terminate()
            server.wait(timeout=10)
            server.stdout.close()
        served = json.loads(dump.read_text())
    # The server stamped the warm reads too; keep its last `reads` of each.
    stamps.update({kind: times[-reads:] for kind, times in served.items()})
    return {
        hop: statistics.median(b - a for a, b in zip(stamps[start], stamps[end])) * 1e3
        for hop, start, end in HOPS
    } | {"total": statistics.median(
        b - a for a, b in zip(stamps["start"], stamps["done"])) * 1e3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree", nargs="?", default=str(ROOT))
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--reads", type=int, default=1100)
    ap.add_argument("--warm", type=int, default=100)
    args = ap.parse_args()
    hops = probe(Path(args.tree).resolve(), args.n, args.reads, args.warm)
    for hop, ms in hops.items():
        print(f"{hop:<28}{ms:8.3f} ms")
    print(json.dumps(hops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
