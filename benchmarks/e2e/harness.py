"""The real server as a subprocess, and the one closed-loop caller.

``python -m repro serve --port 0`` with default flags and every
``REPRO_*`` variable scrubbed, driven over one loopback TCP connection by
a caller that waits for each reply before sending the next request. The
timed run alternates stretches of real requests with requests to the
yardstick server (see yardstick.py), which tell how fast the box was.
"""

from __future__ import annotations

import json
import os
import re
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from workloads import CACHE, GRAPH_NAME, HERE, SRC, Inputs, graph_to_payload
from yardstick import nominal_seconds

CLIENT_TIMEOUT_S = 30.0
_BANNER = re.compile(r"serving on [\w.]+:(\d+)")


#: One core each where there are two: unpinned, ``hot_small`` flips between
#: 0.8 and 1.6 ms a request with where the scheduler puts the threads.
_CPUS = sorted(os.sched_getaffinity(0))


def pin_caller() -> None:
    os.sched_setaffinity(0, {_CPUS[0]})


class Server:
    """One ``python -u <args>`` server process and one connection to it."""

    def __init__(self, args: List[str]) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        CACHE.mkdir(parents=True, exist_ok=True)
        self._log = open(CACHE / f"server.{os.getpid()}.log", "ab")
        # The child inherits this thread's affinity: the last core.
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {_CPUS[-1]})
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", *args], env=env, stdout=subprocess.PIPE,
                stderr=self._log, cwd=str(SRC.parent),
            )
        except BaseException:
            self._log.close()
            raise
        finally:
            os.sched_setaffinity(0, mine)
        self.sock: Optional[socket.socket] = None
        try:
            port = self._await_banner()
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=CLIENT_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self.sock.makefile("rb")
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> int:
        assert self.proc.stdout is not None
        # A warning line precedes the banner when no --graph is given.
        for raw in self.proc.stdout:
            found = _BANNER.search(raw.decode("utf-8", "replace"))
            if found:
                return int(found.group(1))
        raise RuntimeError(f"server exited with {self.proc.wait()} before listening")

    def request(self, line: bytes) -> bytes:
        """Send one request line and wait for its reply line."""
        assert self.sock is not None
        self.sock.sendall(line)
        reply = self._reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.sock is not None:
            self._reader.close()
            self.sock.close()
            self.sock = None
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def add_graph_line(inputs: Inputs) -> Optional[bytes]:
    """The ``add_graph`` request a dynamic workload registers its graph with."""
    if not inputs.workload.dynamic:
        return None
    request = {
        "op": "add_graph", "name": GRAPH_NAME, "dynamic": True,
        "graph": graph_to_payload(inputs.graph()),
    }
    return (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")


def start(inputs: Inputs, add_graph: Optional[bytes]) -> Tuple[Server, float]:
    """Spawn -> listening -> graph resident -> warm-up answered; (server, seconds)."""
    began = time.perf_counter()
    args = ["-m", "repro", "serve", "--port", "0"]
    if not add_graph:
        args += ["--graph", f"{GRAPH_NAME}={inputs.graph_path}"]
    server = Server(args)
    try:
        for line in ([add_graph] if add_graph else []) + inputs.warmup:
            reply = json.loads(server.request(line))
            if not reply.get("ok"):
                raise RuntimeError(f"set-up request failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began


Record = Tuple[int, float, Optional[bytes]]


def drive(
    server: Server,
    stream: List[bytes],
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
    start_at: int = 0,
) -> Tuple[List[Record], float]:
    """Closed loop over ``stream`` (cycled) until ``seconds`` or ``max_ops``.

    Returns ``[(stream index, round-trip seconds, reply or None)]`` and the
    elapsed time; replies are kept raw and checked after timing stops. A
    failed exchange ends the run: the connection's state is unknown.
    """
    records: List[Record] = []
    n = len(stream)
    began = time.perf_counter()
    sent = began
    while (seconds is None or sent - began < seconds) and (
        max_ops is None or len(records) < max_ops
    ):
        index = (start_at + len(records)) % n
        try:
            reply: Optional[bytes] = server.request(stream[index])
        except OSError:
            reply = None
        done = time.perf_counter()
        records.append((index, done - sent, reply))
        sent = done
        if reply is None:
            break
    return records, sent - began


#: The timed run alternates stretches of real requests with yardstick ones.
SLICE_S = 0.5
YARDSTICK_SLICE_S = 0.12


class Yardstick(Server):
    """The yardstick server (see yardstick.py), on the real server's core."""

    def __init__(self) -> None:
        super().__init__([str(HERE / "yardstick.py")])
        self.sample(250)  # its own warm-up

    def sample(self, units: int) -> List[float]:
        """Round trips of ``units``-sized requests for ``YARDSTICK_SLICE_S``."""
        line = b"%d\n" % units
        took: List[float] = []
        began = time.perf_counter()
        while len(took) < 2 or time.perf_counter() - began < YARDSTICK_SLICE_S:
            sent = time.perf_counter()
            self.request(line)
            took.append(time.perf_counter() - sent)
        return took


def speed(samples: List[float], units: int) -> float:
    """How fast the box ran: 1.0 when the yardstick took its nominal time."""
    return nominal_seconds(units) / statistics.fmean(samples)


@dataclass
class Slice:
    """One stretch of real requests and the box's speed around it."""

    records: List[Record]
    seconds: float
    speed: float


def measure(
    server: Server, yardstick: Yardstick, stream: List[bytes], seconds: float, units: int,
    wrap: bool,
) -> List[Slice]:
    """``seconds`` of real requests in slices, each bracketed by the yardstick."""
    slices: List[Slice] = []
    before = yardstick.sample(units)
    position, spent = 0, 0.0
    while spent < seconds and (wrap or position < len(stream)):
        left = None if wrap else len(stream) - position
        records, took = drive(server, stream, SLICE_S, left, position)
        after = yardstick.sample(units)
        slices.append(Slice(records, took, speed(before + after, units)))
        before = after
        position += len(records)
        spent += took
        if records[-1][2] is None:
            break
    return slices
