"""The server's socket reads: a capped ``recv`` size, and frames of any length.

An accepted connection asks the kernel for at most
:data:`~repro.service.server.READ_BYTES` per read, so a request never costs a
fresh 256 KiB buffer; a frame longer than that arrives over several reads.
"""

import socket
import threading

import pytest

from repro.api import Database, Q
from repro.service import QueryServer, connect
from repro.service.server import READ_BYTES

pytestmark = pytest.mark.service


@pytest.fixture()
def recv_sizes(monkeypatch):
    """The ``bufsize`` of every TCP ``recv`` the server's event loop makes.

    The loop's own wake-up socket pair (``AF_UNIX``) is not a connection.
    """
    sizes = []
    recv = socket.socket.recv

    def recording(sock, bufsize, *flags):
        if (threading.current_thread().name == "repro-service-loop"
                and sock.family != socket.AF_UNIX):
            sizes.append(bufsize)
        return recv(sock, bufsize, *flags)

    monkeypatch.setattr(socket.socket, "recv", recording)
    return sizes


def test_a_frame_longer_than_one_read_round_trips(recv_sizes):
    big = "x" * (256 * 1024)  # one atom: a request frame over 200 KiB
    srv = QueryServer(db=Database.of("big", edges=[(big, "y"), ("y", "z")]))
    srv.start_in_thread()
    try:
        with connect(srv.host, srv.port) as conn, conn.session() as s:
            q = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
            assert s.execute(q, src=big).fetchall() == [(big, "y")]
            assert s.execute(q, src="y").fetchall() == [("y", "z")]
    finally:
        srv.stop()
    assert len(big) > READ_BYTES
    assert recv_sizes and max(recv_sizes) <= READ_BYTES


def test_an_accepted_connection_reads_at_most_the_cap(recv_sizes):
    srv = QueryServer(db=Database.of("small", edges=[(1, 2)]))
    srv.start_in_thread()
    try:
        with connect(srv.host, srv.port) as conn:
            assert conn.ping()
    finally:
        srv.stop()
    assert recv_sizes
    assert set(recv_sizes) == {READ_BYTES}
