"""A loopback HTTP echo: the transport yardstick for serve-dblp's kappa reads.

Usage: ``python3 perfbench/echo_server.py`` prints its kernel-chosen port
on the first stdout line, then answers every request on a keep-alive
connection with one fixed small JSON body, shaped like a ``GET /kappa``
answer.  It runs until it is killed.

It uses the same stdlib stack as the program's server (asyncio streams)
and does no work per request, so its round trip is the host's loopback,
wake-up and HTTP-parsing cost at that moment and nothing the program does.
"""

from __future__ import annotations

import asyncio

BODY = b'{"u": 123456, "v": 654321, "kappa": 3}'
RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
)


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            await reader.readuntil(b"\r\n\r\n")
            writer.write(RESPONSE)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
