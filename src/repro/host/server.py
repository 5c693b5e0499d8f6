"""A minimal web-server application for the TCP data-transfer test.

The paper's data-transfer test issues "an HTTP GET request to a Web server"
and watches the order in which the response segments arrive.  The simulated
server does not parse HTTP; any request payload on an established connection
triggers transmission of the configured root object, segmented according to
the client's advertised MSS and receive window (which the prober deliberately
restricts).
"""

from __future__ import annotations

from typing import Optional

from repro.host.tcp_endpoint import TcpConnection, TcpEndpoint

DEFAULT_OBJECT_SIZE = 16 * 1024


class WebServer:
    """Serves a fixed-size root object in response to any request data.

    Parameters
    ----------
    object_size:
        Size of the root object in bytes.  Sites that answer with an HTTP
        redirect are modelled with a small ``object_size`` that fits in a
        single segment, which (as the paper notes) makes them useless for the
        data-transfer test.
    """

    def __init__(self, object_size: int = DEFAULT_OBJECT_SIZE) -> None:
        if object_size < 0:
            raise ValueError(f"object size cannot be negative: {object_size}")
        self.object_size = object_size
        self.requests_served = 0
        self._responded: set[tuple[int, int, int, int]] = set()

    REQUEST_TERMINATOR = b"\r\n\r\n"

    def on_data(self, endpoint: TcpEndpoint, connection: TcpConnection, payload: bytes) -> None:
        """Handle request bytes: a complete request triggers the response.

        Only data containing the blank-line terminator of an HTTP request
        starts a transfer; the one-byte probes of the single- and
        dual-connection tests therefore never trigger application traffic,
        matching how a real web server treats an incomplete request.
        """
        if not payload or self.REQUEST_TERMINATOR not in payload:
            return
        key = connection.key
        if key in self._responded:
            return
        self._responded.add(key)
        self.requests_served += 1
        endpoint.send_app_data(connection, self.object_size)

    def reset(self) -> None:
        """Forget which connections have been answered (between experiments)."""
        self._responded.clear()
        self.requests_served = 0


class RedirectingServer(WebServer):
    """A server whose root object is a single-segment redirect.

    Exists so the survey can include sites for which the data-transfer test
    cannot produce samples ("this is a problem in practice for sites that use
    HTTP redirects, which fit in a single packet").
    """

    def __init__(self, redirect_size: int = 200) -> None:
        super().__init__(object_size=redirect_size)


def build_server(object_size: Optional[int]) -> WebServer:
    """Build a web server; ``None`` or small sizes produce a redirect-style server."""
    if object_size is None:
        return RedirectingServer()
    if object_size <= 512:
        return RedirectingServer(redirect_size=object_size)
    return WebServer(object_size=object_size)
