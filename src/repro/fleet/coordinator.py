"""Fleet coordination: worker connections, heartbeats and loss detection.

:class:`FleetCoordinator` owns the evaluation service's worker connections
— TCP dials to remote workers, dial-in registrations accepted via
:meth:`FleetCoordinator.listen`, and ``socketpair`` ends of forked local
workers via :meth:`FleetCoordinator.adopt` — plus the hello/welcome
handshake, per-worker reader threads, one heartbeat thread, and loss
detection.  It turns everything that happens on the wire into two kinds of
events on an inbox queue — ``("result", worker, message)`` and
``("lost", worker, None)`` — so all recovery logic runs single-threaded in
the consumer, :class:`repro.distributed.EvaluationService`.
"""

from __future__ import annotations

import queue as queue_module
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.protocol import (
    FleetError,
    FleetProtocolError,
    bye_message,
    decode_message,
    encode_message,
    hello_message,
    ping_message,
    read_line,
)


class _RemoteWorker:
    """One connected fleet worker: socket, liveness, shipped payloads."""

    def __init__(self, name: str, connection: socket.socket):
        self.name = name
        self.connection = connection
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.alive = True
        self.shipped_kernels: set = set()
        self.shipped_tasks: Dict[str, int] = {}


class FleetCoordinator:
    """Manage fleet-worker connections, heartbeats, and loss detection."""

    def __init__(
        self,
        machine,
        default_symbol_value: int,
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
    ):
        self.machine = machine
        self.default_symbol_value = int(default_symbol_value)
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        #: ("result", worker, message) and ("lost", worker, None) events.
        self.inbox: "queue_module.Queue" = queue_module.Queue()
        self._workers: Dict[str, _RemoteWorker] = {}
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._ping_sequence = 0

    # -- connection management ---------------------------------------------

    def dial(self, addresses: Sequence[str]) -> List[str]:
        """Connect to ``host:port`` workers; unreachable ones are skipped.

        Returns the names of the workers that completed the handshake.
        """
        connected = []
        for address in addresses:
            host, _, port_text = str(address).rpartition(":")
            try:
                connection = socket.create_connection(
                    (host or "127.0.0.1", int(port_text)),
                    timeout=self.connect_timeout,
                )
            except (OSError, ValueError):
                continue
            name = self.adopt(connection)
            if name is not None:
                connected.append(name)
        return connected

    def adopt(self, connection: socket.socket) -> Optional[str]:
        """Handshake a worker on an already-connected socket.

        Returns the worker's name, or ``None`` (connection closed) when it
        does not complete the handshake — e.g. it speaks another protocol
        version.
        """
        try:
            return self._handshake(connection)
        except (OSError, FleetError):
            connection.close()
            return None

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Accept dial-in worker registrations; returns the bound address."""
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(32)
            listener.settimeout(0.2)
            self._listener = listener
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="fleet-coordinator-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self._listener.getsockname()[:2]

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._handshake(connection, expect_register=True)
            except (OSError, FleetError):
                connection.close()

    def _handshake(
        self, connection: socket.socket, expect_register: bool = False
    ) -> str:
        """hello → welcome (dial-out) or register → hello → welcome (dial-in)."""
        connection.settimeout(self.connect_timeout)
        stream = connection.makefile("rb")
        if expect_register:
            message = self._read_handshake(stream, "register")
        connection.sendall(
            encode_message(hello_message(self.machine, self.default_symbol_value))
        )
        message = self._read_handshake(stream, "welcome")
        name = str(message["worker"])
        connection.settimeout(None)
        worker = _RemoteWorker(name, connection)
        with self._lock:
            if name in self._workers:
                raise FleetError(f"duplicate fleet worker name: {name!r}")
            self._workers[name] = worker
        reader = threading.Thread(
            target=self._read_loop, args=(worker, stream),
            name=f"fleet-read-{name}", daemon=True,
        )
        self._threads.append(reader)
        reader.start()
        self._ensure_heartbeat()
        return name

    @staticmethod
    def _read_handshake(stream, expected: str) -> dict:
        for line in iter(lambda: read_line(stream), b""):
            if not line.strip():
                continue
            message = decode_message(line)
            if message.get("type") != expected:
                raise FleetProtocolError(
                    f"expected {expected!r} during fleet handshake, "
                    f"got {message.get('type')!r}"
                )
            return message
        raise FleetError(f"fleet connection closed before {expected!r}")

    def _ensure_heartbeat(self) -> None:
        """Start the heartbeat with the first connected worker, so a
        coordinator that never connects anyone runs no thread."""
        with self._lock:
            if self._heartbeat_thread is not None or self._stopping.is_set():
                return
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
            )
        self._heartbeat_thread.start()

    # -- wire I/O ----------------------------------------------------------

    def _read_loop(self, worker: _RemoteWorker, stream) -> None:
        try:
            # An oversize line raises out of read_line: the worker is lost.
            for line in iter(lambda: read_line(stream), b""):
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except FleetProtocolError:
                    continue
                # Anything inbound proves the worker is alive.
                worker.last_seen = time.monotonic()
                if message.get("type") == "result" and isinstance(
                    message.get("id"), int
                ):
                    self.inbox.put(("result", worker.name, message))
        except (OSError, ValueError, FleetProtocolError):
            pass
        finally:
            stream.close()
            self.mark_lost(worker.name)

    def _heartbeat_loop(self) -> None:
        while not self._stopping.is_set():
            time.sleep(self.heartbeat_interval)
            self.check_timeouts()
            self._ping_sequence += 1
            for worker in self.live_worker_records():
                try:
                    with worker.send_lock:
                        worker.connection.sendall(
                            encode_message(ping_message(self._ping_sequence))
                        )
                except OSError:
                    self.mark_lost(worker.name)

    def check_timeouts(self) -> None:
        """Declare lost every worker silent for longer than the timeout."""
        deadline = time.monotonic() - self.heartbeat_timeout
        for worker in self.live_worker_records():
            if worker.last_seen < deadline:
                self.mark_lost(worker.name)

    def mark_lost(self, name: str) -> None:
        """Idempotently declare one worker dead and emit a loss event."""
        with self._lock:
            worker = self._workers.get(name)
            if worker is None or not worker.alive:
                return
            worker.alive = False
        try:
            worker.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        worker.connection.close()
        self.inbox.put(("lost", name, None))

    # -- queries -----------------------------------------------------------

    def live_workers(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, worker in self._workers.items() if worker.alive
            )

    def live_worker_records(self) -> List[_RemoteWorker]:
        with self._lock:
            return [worker for worker in self._workers.values() if worker.alive]

    def worker(self, name: str) -> _RemoteWorker:
        with self._lock:
            return self._workers[name]

    def send_many(self, name: str, payloads: Sequence[dict]) -> None:
        """Send messages to one worker in order; raises ``OSError`` on a
        dead connection (callers re-shard)."""
        worker = self.worker(name)
        if not worker.alive:
            raise OSError(f"fleet worker {name!r} is lost")
        with worker.send_lock:
            for payload in payloads:
                worker.connection.sendall(encode_message(payload))

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join()
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
        for worker in self.live_worker_records():
            try:
                with worker.send_lock:
                    worker.connection.sendall(encode_message(bye_message()))
            except OSError:
                pass
            try:
                worker.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            worker.connection.close()
            worker.alive = False
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
