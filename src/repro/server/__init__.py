"""repro.server -- concurrent multi-client network front end.

A line-delimited JSON wire protocol over TCP, a thread-safe engine
front (the engine latch + condition-variable parking of
:mod:`repro.engine.latches`), two selectable transports (threaded and
asyncio), admission control with retryable 53300 rejections, and a
client library whose ``run_transaction`` retries serialization
failures with jittered exponential backoff -- the middleware layer the
paper assumes around every SERIALIZABLE application (section 3.3).

Quickstart::

    from repro.engine.database import Database
    from repro.server import ReproServer, ServerConfig, connect

    server = ReproServer(Database(), ServerConfig(port=0)).start()
    client = connect(server.address)
    client.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    client.run_transaction(lambda c: c.sql("INSERT INTO t VALUES (1, 2)"))
    client.close()
    server.stop()
"""

from repro.server.client import ClientPool, ReproClient, connect
from repro.server.engine import EngineSession, ThreadSafeEngine
from repro.server.server import ReproServer, ServerConfig

__all__ = [
    "ClientPool",
    "EngineSession",
    "ReproClient",
    "ReproServer",
    "ServerConfig",
    "ThreadSafeEngine",
    "connect",
]
