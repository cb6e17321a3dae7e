"""A live :class:`SimulationService` for tests: an ephemeral port, its event
loop on a daemon thread, and the real blocking client."""

import asyncio
import threading

from repro.experiments.sweep import SweepEngine
from repro.service.client import ServiceClient
from repro.service.queue import FairQueue
from repro.service.server import SimulationService


class ServiceHarness:
    """One live service on an ephemeral port, loop on a daemon thread."""

    def __init__(self, engine=None, auth_key=None, **queue_options):
        self.engine = engine if engine is not None else SweepEngine(workers=0)
        self.auth_key = auth_key
        self.service = SimulationService(
            engine=self.engine, queue=FairQueue(**queue_options),
            auth_key=auth_key,
        )
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start(port=0))
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "service did not start"

    def client(self, client_id="tester", auth_key=None):
        return ServiceClient(
            port=self.service.port, client_id=client_id, timeout=30,
            auth_key=auth_key,
        )

    def close(self):
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()
