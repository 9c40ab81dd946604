"""Open-loop load generator for the compile server's TCP edge.

Runs as its own process so that it never competes with the service for the
interpreter lock.  It reads one JSON document from standard input::

    {"host": "127.0.0.1", "port": 4242,
     "schedule": [[due_offset_s, "<one request line>"], ...]}

then opens one connection and runs two threads: the sender writes each
request line when it falls due, whatever the state of earlier requests, and
the receiver reads response lines as they arrive.  Times are offsets from
the schedule's start in seconds.  It prints one JSON document::

    {"sent": [[due_s, sent_s], ...],        # in schedule order
     "received": [[recv_s, "<line>"], ...], # in arrival order
     "error": null}

Response lines are kept raw while the load runs and parsed by the caller,
so the generator spends its time sending and receiving.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

#: How long the receiver waits for the next response before giving up.
RECEIVE_TIMEOUT_S = 30.0

#: Time between connecting and the schedule's start.
LEAD_S = 0.05


def run(host: str, port: int, schedule) -> dict:
    lines = [line.encode("utf-8") for _due, line in schedule]
    dues = [float(due) for due, _line in schedule]
    sent = [0.0] * len(lines)
    received = []
    errors = []
    sock = socket.create_connection((host, port), timeout=RECEIVE_TIMEOUT_S)
    # Each request leaves when due instead of waiting to share a segment.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stream = sock.makefile("rb")
    start = time.perf_counter() + LEAD_S

    def send() -> None:
        try:
            for index, line in enumerate(lines):
                delay = start + dues[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[index] = time.perf_counter() - start
                sock.sendall(line)
        except OSError as error:
            errors.append(f"send failed: {error}")

    def receive() -> None:
        try:
            for _ in lines:
                line = stream.readline()
                if not line:
                    errors.append("server closed the connection")
                    return
                received.append((time.perf_counter() - start, line.decode("utf-8")))
        except (OSError, UnicodeDecodeError) as error:
            errors.append(f"receive failed: {error}")

    sender = threading.Thread(target=send, name="loadgen-send")
    receiver = threading.Thread(target=receive, name="loadgen-receive")
    receiver.start()
    sender.start()
    sender.join()
    receiver.join()
    stream.close()
    sock.close()
    return {
        "sent": [[due, at] for due, at in zip(dues, sent)],
        "received": [[at, line] for at, line in received],
        "error": "; ".join(errors) or None,
    }


def main() -> int:
    spec = json.load(sys.stdin)
    result = run(spec["host"], int(spec["port"]), spec["schedule"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
