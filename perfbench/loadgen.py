"""Single-threaded ``selectors`` load generator over binary connections.

One :class:`Generator` owns a few pipelined connections to the server
(binary protocol, negotiated with the v2 hello) and runs two kinds of
phase on them:

* :meth:`Generator.open_loop` sends pre-encoded frames on a fixed schedule,
  whether or not earlier requests have been answered;
* :meth:`Generator.closed_loop` keeps a fixed number of requests in flight
  on each connection and sends the next one as each answer arrives.

Answers are matched to requests by correlation id and handed to a
callback as ``(index, payload, now)``, the payload still encoded:
decoding and checking it is the caller's business, after the timed
phase. The generator never waits on one socket: a connection whose
send buffer is full is flushed when it becomes writable.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time

from repro.frontend import wire

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
_CORR = struct.Struct(">Q")
#: Offset of the correlation id inside a frame (u32 length, u8 opcode).
_CORR_OFFSET = 5
#: Correlation ids reserved for one closed-loop phase (far more than
#: any phase sends).
_CLOSED_IDS = 10_000_000
#: Seconds to connect and negotiate.
CONNECT_TIMEOUT = 10.0
#: Seconds a phase may wait for its last answers after its last send.
ANSWER_LIMIT = 60.0


class ServerGone(RuntimeError):
    """The server closed a connection or stopped answering."""


class _Conn:
    __slots__ = ("sock", "decoder", "out", "mask", "inflight")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self.out = bytearray()
        self.mask = _READ
        self.inflight = 0


def with_corr(frame: bytes, corr_id: int) -> bytes:
    """A copy of a pre-encoded frame carrying another correlation id."""
    patched = bytearray(frame)
    _CORR.pack_into(patched, _CORR_OFFSET, corr_id)
    return bytes(patched)


class Generator:
    """Pipelined binary connections plus the phase loops that use them."""

    def __init__(self, host: str, port: int, connections: int):
        self.sel = selectors.DefaultSelector()
        self.conns: list[_Conn] = []
        self._next_corr = 1
        try:
            for _ in range(connections):
                sock = socket.create_connection((host, port),
                                                timeout=CONNECT_TIMEOUT)
                self.conns.append(_Conn(sock))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(wire.HELLO_V2)
                echo = b""
                while len(echo) < len(wire.HELLO_V2):
                    chunk = sock.recv(len(wire.HELLO_V2) - len(echo))
                    if not chunk:
                        raise ServerGone("server closed during the hello")
                    echo += chunk
                if echo != wire.HELLO_V2:
                    raise ServerGone(f"server answered the hello with {echo!r}")
                sock.setblocking(False)
                self.sel.register(sock, _READ, self.conns[-1])
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for conn in self.conns:
            try:
                self.sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self.conns = []
        self.sel.close()

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive correlation ids; returns the first."""
        base = self._next_corr
        self._next_corr += count
        return base

    # -- socket plumbing -------------------------------------------------------

    def _send(self, conn: _Conn, data: bytes) -> None:
        conn.inflight += 1
        if conn.out:
            conn.out += data
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError as err:
            raise ServerGone(f"send failed: {err}") from err
        if sent < len(data):
            conn.out += data[sent:]
            self._set_mask(conn, _READ | _WRITE)

    def _set_mask(self, conn: _Conn, mask: int) -> None:
        if conn.mask != mask:
            conn.mask = mask
            self.sel.modify(conn.sock, mask, conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError as err:
            raise ServerGone(f"send failed: {err}") from err
        del conn.out[:sent]
        if not conn.out:
            self._set_mask(conn, _READ)

    def _poll(self, timeout: float, on_frame) -> None:
        for key, mask in self.sel.select(timeout):
            conn = key.data
            if mask & _WRITE:
                self._flush(conn)
            if mask & _READ:
                try:
                    data = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                except OSError as err:
                    raise ServerGone(f"recv failed: {err}") from err
                if not data:
                    raise ServerGone("server closed a connection")
                now = time.perf_counter()
                conn.decoder.feed(data)
                for _opcode, corr_id, payload in conn.decoder.drain():
                    conn.inflight -= 1
                    on_frame(conn, corr_id, payload, now)

    # -- phases ----------------------------------------------------------------

    def open_loop(self, frames, scheduled, base: int, on_response,
                  on_send=None) -> None:
        """Send ``frames[i]`` at ``scheduled[i]`` (perf_counter seconds),
        round-robin over the connections; returns once every request has
        been answered.

        A connection that carries a retrain takes no further frame until
        the retrain is answered; the frames due meanwhile go to the other
        connections. The server stamps a frame when it reads it, and the
        retrain runs on its event loop, so reads that arrive in the same
        read as a retrain would be stamped before it ran and shed after.
        Reads on the other connections still wait for the retrain.

        ``on_send(i, now)`` is called with the position of every frame
        sent; ``on_response(corr_id - base, payload, now)`` for every
        answer.
        """
        n = len(frames)
        conns = self.conns
        width = len(conns)
        remaining = [n]
        #: Connection -> correlation id of its unanswered retrain.
        held: dict[_Conn, int] = {}

        def on_frame(conn, corr_id, payload, now):
            remaining[0] -= 1
            if held.get(conn) == corr_id:
                del held[conn]
            on_response(corr_id - base, payload, now)

        deadline = (scheduled[-1] if n else time.perf_counter()) + ANSWER_LIMIT
        i = 0
        while remaining[0] > 0:
            now = time.perf_counter()
            while i < n and scheduled[i] <= now:
                conn = conns[i % width]
                if conn in held:
                    conn = next((c for c in conns if c not in held), conn)
                frame = frames[i]
                if frame[_CORR_OFFSET - 1] == wire.OP_RETRAIN:
                    held[conn] = _CORR.unpack_from(frame, _CORR_OFFSET)[0]
                self._send(conn, frame)
                if on_send is not None:
                    on_send(i, now)
                i += 1
            if now > deadline:
                raise ServerGone(
                    f"{remaining[0]} of {n} requests unanswered after "
                    f"{ANSWER_LIMIT:.0f} s"
                )
            wait = scheduled[i] - time.perf_counter() if i < n else 0.05
            self._poll(max(0.0, wait), on_frame)

    def closed_loop(self, frame_for, window: int, seconds: float,
                    on_response) -> int:
        """Keep ``window`` requests in flight per connection for
        ``seconds``, then wait for the stragglers.

        ``frame_for(seq, corr_id)`` builds request ``seq``; the
        callback gets ``seq`` as the index. Returns the requests sent.
        """
        seq = [0]
        base = self.reserve(_CLOSED_IDS)
        start = time.perf_counter()
        stop_at = start + seconds

        def send_next(conn):
            if seq[0] >= _CLOSED_IDS:
                raise ServerGone("closed loop ran out of correlation ids")
            self._send(conn, frame_for(seq[0], base + seq[0]))
            seq[0] += 1

        def on_frame(conn, corr_id, payload, now):
            on_response(corr_id - base, payload, now)
            if now < stop_at:
                send_next(conn)

        for conn in self.conns:
            for _ in range(window):
                send_next(conn)
        deadline = stop_at + ANSWER_LIMIT
        while any(conn.inflight for conn in self.conns):
            if time.perf_counter() > deadline:
                raise ServerGone("closed-loop requests unanswered")
            self._poll(0.05, on_frame)
        return seq[0]
