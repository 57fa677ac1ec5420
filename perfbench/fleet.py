"""A one-broker, one-worker fleet driven from a single client connection.

The broker and the worker are real ``dalorex broker`` / ``dalorex worker``
subprocesses started through the CLI, exactly as users start them.  The
client keeps one TCP connection open and speaks the wire protocol directly:
one ``submit`` op per spec, then ``fetch`` polls until every result is in,
then ``metrics`` (traced runs) and ``shutdown``.
"""

from __future__ import annotations

import re
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WORKER_ID = "perfbench-worker"
TENANT = "perfbench"
POLL_S = 0.02
#: Seconds a worker keeps retrying an unreachable broker before it exits.
#: It bounds ``worker.exit_s``: after a ``shutdown`` op the worker usually
#: finds the broker gone and waits this long instead of exiting at once.
WORKER_PATIENCE_S = 1.0
_BANNER = re.compile(r"broker listening on (\S+)")


class FleetError(RuntimeError):
    """The fleet could not be started or driven."""


class Connection:
    """One persistent client connection to the broker."""

    def __init__(self, address: Tuple[str, int], timeout: float = 60.0) -> None:
        from repro.runtime.distributed.protocol import MAX_FRAME_BYTES

        self.max_bytes = MAX_FRAME_BYTES
        self.sock = socket.create_connection(address, timeout=timeout)
        self.rfile = self.sock.makefile("rb")

    def request(self, message: Dict) -> Dict:
        from repro.runtime.distributed.protocol import (
            PROTOCOL,
            BrokerError,
            encode_message,
            read_message,
        )

        self.sock.sendall(encode_message(dict(message, protocol=PROTOCOL)))
        response = read_message(self.rfile, max_bytes=self.max_bytes)
        if response is None:
            raise FleetError(f"broker closed the connection during {message.get('op')!r}")
        if not response.get("ok"):
            raise BrokerError(response.get("error") or "request failed", code=response.get("code"))
        return response

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class Fleet:
    """Broker + worker subprocesses; always torn down by :meth:`close`."""

    def __init__(self, workdir: Path, env: Dict[str, str], trace: bool) -> None:
        self.workdir = workdir
        self.env = env
        self.trace = trace
        self.broker: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.conn: Optional[Connection] = None
        self.worker_exit_s = 0.0
        self._logs: List = []

    # ------------------------------------------------------------- lifecycle
    def start(self, timeout: float = 60.0) -> None:
        """Launch the broker, wait for its banner, then connect one worker."""
        from repro.runtime.distributed.protocol import parse_address

        deadline = time.monotonic() + timeout
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.broker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "broker",
                "--port", "0",
                "--state-file", str(self.workdir / "state.json"),
                "--cache-dir", str(self.workdir / "cache"),
                "--verify-ingest",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log("broker.err"),
            env=self.env,
            text=True,
        )
        banner = self.broker.stdout.readline()
        match = _BANNER.search(banner or "")
        if match is None:
            raise FleetError(f"broker did not start: {banner!r}")
        worker_env = dict(self.env)
        if self.trace:
            # Worker spans exist only with telemetry on; they reach the
            # broker piggybacked on heartbeats and uploads.
            worker_env["DALOREX_TELEMETRY"] = "1"
        self.worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--connect", match.group(1),
                "--worker-id", WORKER_ID,
                "--poll-interval", str(POLL_S),
                "--patience", str(WORKER_PATIENCE_S),
                "--quiet",
            ],
            stdout=subprocess.DEVNULL,
            stderr=self._log("worker.err"),
            env=worker_env,
        )
        self.conn = Connection(parse_address(match.group(1)))
        while WORKER_ID not in self.conn.request({"op": "stats"}).get("per_worker", {}):
            if time.monotonic() > deadline or self.worker.poll() is not None:
                raise FleetError("worker did not connect to the broker")
            time.sleep(0.005)

    def _log(self, name: str):
        handle = open(self.workdir / name, "wb")
        self._logs.append(handle)
        return handle

    def shutdown(self, timeout: float = 30.0) -> None:
        """Orderly stop: ``shutdown`` op, then wait for both processes."""
        self.conn.request({"op": "shutdown"})
        start = time.perf_counter()
        self.worker.wait(timeout=timeout)
        self.worker_exit_s = time.perf_counter() - start
        self.broker.wait(timeout=timeout)

    def close(self) -> None:
        """Kill whatever is still running and reap it (idempotent)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        for proc in (self.worker, self.broker):
            if proc is None:
                continue
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        while self._logs:
            self._logs.pop().close()

    def broker_write_bytes(self) -> int:
        """Bytes the broker process has written so far (``wchar``)."""
        with open(f"/proc/{self.broker.pid}/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
        return 0

    # ----------------------------------------------------------------- sweep
    def sweep(self, specs: List[Tuple[str, Dict]]) -> Dict:
        """Submit one spec per op, then fetch until all results are in.

        ``specs`` holds ``(key, canonical)`` pairs.  Returns the payloads by
        key, the keys the broker rejected or gave up on, and the client-side
        op latencies.
        """
        from repro.runtime.distributed.protocol import BrokerError, decompress_payload

        conn = self.conn
        submit_s: List[float] = []
        failed: Dict[str, str] = {}
        for key, canonical in specs:
            start = time.perf_counter()
            try:
                response = conn.request(
                    {"op": "submit", "specs": [canonical], "tenant": TENANT}
                )
            except BrokerError as exc:
                response = {"queued": 0, "error": str(exc)}
            submit_s.append(time.perf_counter() - start)
            if response.get("queued") != 1:
                failed[key] = f"not queued: {response}"
        outstanding = {key for key, _ in specs} - set(failed)
        payloads: Dict[str, Dict] = {}
        fetch_s: List[float] = []
        while outstanding:
            start = time.perf_counter()
            response = conn.request(
                {
                    "op": "fetch",
                    "keys": sorted(outstanding),
                    "accept_gzip": True,
                    "max_frame_bytes": conn.max_bytes // 2,
                }
            )
            if response.get("chunked"):
                # Sweep payloads are kilobytes; the budget above never splits them.
                raise FleetError(f"unexpected chunked payloads: {sorted(response['chunked'])}")
            fetched = dict(response.get("results", {}))
            for key, blob in response.get("results_gz", {}).items():
                fetched[key] = decompress_payload(blob)
            fetch_s.append(time.perf_counter() - start)
            for key, payload in fetched.items():
                if key in outstanding:
                    outstanding.discard(key)
                    payloads[key] = payload
            for key, reason in response.get("failed", {}).items():
                if key in outstanding:
                    outstanding.discard(key)
                    failed[key] = reason
            if outstanding:
                time.sleep(POLL_S)
        return {
            "payloads": payloads,
            "failed": failed,
            "submit_s": submit_s,
            "fetch_s": fetch_s,
        }

    def metrics(self) -> Dict:
        """The fleet-wide telemetry snapshot (``metrics`` op)."""
        return self.conn.request({"op": "metrics"}).get("metrics", {})


def fleet_layers(snapshot: Dict) -> Dict[str, float]:
    """Broker and worker layer numbers from a ``metrics`` op snapshot."""
    histograms = snapshot.get("histograms", {})
    counters = snapshot.get("counters", {})

    def hist(name: str, labels: str = "") -> Dict:
        return histograms.get(name, {}).get(labels, {})

    def mean_ms(name: str, labels: str) -> float:
        entry = hist(name, labels)
        return 1000.0 * entry["sum"] / entry["count"] if entry.get("count") else 0.0

    lease_ops = int(counters.get("broker.ops", {}).get("op=lease", 0))
    leases = int(sum(counters.get("broker.leases", {}).values()))
    return {
        "broker.op_ms.lease": mean_ms("broker.op.seconds", "op=lease"),
        "broker.op_ms.result": mean_ms("broker.op.seconds", "op=result"),
        "broker.ingest_s": float(hist("span.broker.ingest.seconds").get("sum", 0.0)),
        "broker.lease_hit_ratio": leases / lease_ops if lease_ops else 0.0,
        "worker.lease_s": float(hist("span.worker.lease.seconds").get("sum", 0.0)),
        "worker.execute_s": float(hist("span.worker.execute.seconds").get("sum", 0.0)),
        "worker.upload_s": float(hist("span.worker.upload.seconds").get("sum", 0.0)),
    }
