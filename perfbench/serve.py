"""A `dislock_serve` process and a blocking client of its JSON-lines
session protocol (the timed load comes from the load generator,
perfbench_loadgen)."""

import json
import os
import re
import signal
import socket
import subprocess
import time

VERDICT = re.compile(rb'"verdict": "([A-Z]+)"')
OK = b'"ok": true'


def envelope(cmd, arg=None, block=None):
    msg = {"cmd": cmd}
    if arg is not None:
        msg["arg"] = arg
    if block is not None:
        msg["block"] = block
    return (json.dumps(msg) + "\n").encode()


class Server:
    """One `dislock_serve --port 0` process, at its default flags plus
    `extra` (the traced run adds --trace/--metrics)."""

    def __init__(self, binary, extra=(), timeout=30.0):
        self.proc = subprocess.Popen(
            [binary, "--port", "0"] + list(extra),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + timeout
        line = ""
        while "listening on" not in line:
            line = self.proc.stderr.readline()
            if not line or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("dislock_serve did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        self.rusage = None

    def connect(self):
        return Conn(self.port)

    def shutdown(self, timeout=60.0):
        """Sends `shutdown`, waits for exit; returns the exit code and
        keeps the process's rusage (peak RSS)."""
        try:
            with Conn(self.port) as c:
                c.call(envelope("shutdown"))
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.kill()
                break
            time.sleep(0.005)
        self.proc.stderr.close()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else 0.0


class Conn:
    """One blocking connection: send a request line, read one response."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def recv_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def call(self, request):
        self.sock.sendall(request)
        return self.recv_line()

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
