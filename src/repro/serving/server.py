"""Threaded TCP front end over a :class:`CompileService`.

One accept thread, and per connection a reader thread (decode a
newline-delimited-JSON request, admit it into the service) plus a writer
thread (resolve each admitted future and write its response back, in
submission order per connection — clients match by request id, see
:class:`repro.serving.client.TCPClient`).  The reader/writer split is what
lets one connection pipeline many requests: everything a client writes in
a burst is in the admission queue together, so the service coalesces and
micro-batches it.

The server does not own the service's lifecycle beyond starting it:
``stop()`` closes the listener and connections; drain the service itself
with ``service.stop(drain=True)``.
"""

from __future__ import annotations

import queue as _queue
import socket
import threading
from typing import List, Optional, Tuple

from repro.fleet.protocol import FleetProtocolError
from repro.serving.schema import (
    CompileRequest,
    CompileResponse,
    ServingError,
    decode_message,
    encode_message,
    read_line,
)


class CompileServer:
    """Listen for optimization requests and feed them to a service.

    ``port=0`` (the default) binds an ephemeral port; read the actual
    address from :attr:`address` after :meth:`start`.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        if self._listener is None:
            raise ServingError("server is not started")
        return self._listener.getsockname()[:2]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "CompileServer":
        if self._listener is not None:
            return self
        self.service.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(32)
        # A short accept timeout keeps the loop responsive to stop().
        listener.settimeout(0.2)
        self._listener = listener
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="compile-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and close every connection.

        In-flight requests already admitted to the service still resolve
        (and are written back if the connection survives until then); the
        service itself keeps running so callers control its drain.
        """
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join()
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        with self._lock:
            connections, self._connections = self._connections, []
            threads, self._threads = self._threads, []
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "CompileServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- connection handling --------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            connection.settimeout(None)
            # Send each response as soon as it is written: with Nagle's
            # algorithm a response on a pipelined connection waits for the
            # client's delayed ACK of the previous one.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Per-connection FIFO of futures/ready responses written back in
            # submission order; ``None`` is the writer's exit sentinel.
            outbox: "_queue.Queue" = _queue.Queue()
            reader = threading.Thread(
                target=self._read_loop,
                args=(connection, outbox),
                name="compile-server-read",
                daemon=True,
            )
            writer = threading.Thread(
                target=self._write_loop,
                args=(connection, outbox),
                name="compile-server-write",
                daemon=True,
            )
            with self._lock:
                self._connections.append(connection)
                self._threads.extend((reader, writer))
            reader.start()
            writer.start()

    def _read_loop(self, connection: socket.socket, outbox: "_queue.Queue") -> None:
        stream = connection.makefile("rb")
        try:
            for line in iter(lambda: read_line(stream), b""):
                if not line.strip():
                    continue
                try:
                    request = CompileRequest.from_payload(decode_message(line))
                    outbox.put((request.request_id, self.service.submit(request)))
                except (ServingError, FleetProtocolError) as error:
                    # Malformed request / closed or full service: answer on
                    # the wire instead of killing the connection.
                    outbox.put(
                        (None, CompileResponse(error=str(error)))
                    )
        except FleetProtocolError as error:
            # An oversize line: answer it, then drop the connection, whose
            # framing is lost with the unread rest of that line.
            outbox.put((None, CompileResponse(error=str(error))))
        except (OSError, ValueError):
            pass
        finally:
            stream.close()
            outbox.put(None)

    def _write_loop(self, connection: socket.socket, outbox: "_queue.Queue") -> None:
        try:
            while True:
                entry = outbox.get()
                if entry is None:
                    return
                request_id, pending = entry
                if isinstance(pending, CompileResponse):
                    response = pending
                    response.request_id = request_id or response.request_id
                else:
                    try:
                        response = pending.result()
                    except Exception as error:
                        response = CompileResponse(
                            request_id=request_id, error=str(error)
                        )
                connection.sendall(encode_message(response.to_payload()))
        except OSError:
            return
