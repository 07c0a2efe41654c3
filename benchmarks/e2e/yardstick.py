"""The yardstick: a frozen miniature of the serving path, used as the unit of time.

This box's speed drifts by up to +-25 % in phases that last from seconds
to minutes, more than any bound a metric could be held to. So the timed
run alternates between the real server and this one, which never changes:
a JSON-lines-shaped asyncio server that hands each request to a thread
pool, where it does ``units`` fixed pieces of Python and small-array numpy
work. How long its requests take around a stretch of real requests says
how fast the box was just then, and the real round trips are scaled to the
speed at which a yardstick request takes its nominal time. Nothing here
may import ``repro`` or be tuned: a change to this file changes the unit.

    python3 yardstick.py    # prints "serving on 127.0.0.1:PORT"; send b"<units>\n"
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_A = np.arange(0, 3000, 3)
_B = np.arange(0, 3000, 5)

#: What a request of ``units`` pieces takes on the quiet box: the loopback
#: round trip and thread hand-off, plus the pieces.
NOMINAL_OVERHEAD_MS = 0.30
NOMINAL_UNIT_MS = 0.142


def nominal_seconds(units: int) -> float:
    return (NOMINAL_OVERHEAD_MS + NOMINAL_UNIT_MS * units) / 1000.0


def work(units: int) -> int:
    total = 0
    for _ in range(units):
        for i in range(300):
            total += i * i
        total += int(np.intersect1d(_A, _B).size)
    return total


async def _serve() -> None:
    pool = ThreadPoolExecutor(max_workers=4)
    loop = asyncio.get_running_loop()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while line := await reader.readline():
                done = await loop.run_in_executor(pool, work, int(line))
                writer.write(b"%d\n" % done)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(f"serving on 127.0.0.1:{server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
