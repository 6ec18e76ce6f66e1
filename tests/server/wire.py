"""One test client for the node's wire protocol.

Binary GET frames out, JSON control verbs out, and every reply — binary
tuple or JSON dict — decoded through the same :class:`FrameDecoder` the
server and the load generator use.
"""

import asyncio

from repro.server.protocol import FrameDecoder, encode_message, pack_get_request


class Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._decoder = FrameDecoder()
        self._frames: list = []

    @classmethod
    async def connect(cls, port: int) -> "Client":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def send_gets(self, indices, oid=None) -> None:
        """Pipeline one BIN_GET per index in a single write."""
        await self.send(b"".join(pack_get_request(i, oid, 1) for i in indices))

    async def recv(self, n: int = 1) -> list:
        """The next ``n`` reply frames, in arrival order.

        Returns fewer only when the server closed the connection first.
        """
        while len(self._frames) < n:
            data = await self.reader.read(65536)
            if not data:
                break
            self._frames += self._decoder.feed(data)
        out, self._frames = self._frames[:n], self._frames[n:]
        return out

    async def get(self, indices, oid=None) -> list:
        """Send GETs for ``indices`` and collect one reply frame each."""
        indices = list(indices)
        await self.send_gets(indices, oid)
        return await self.recv(len(indices))

    async def ask(self, message: dict):
        """One JSON control verb, one reply (``None`` if the server hung up)."""
        await self.send(encode_message(message))
        frames = await self.recv()
        return frames[0] if frames else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
