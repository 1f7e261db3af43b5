"""The concurrent query-service tier: an asyncio front end over sessions.

``repro.serve.Server`` owns a pool of warmed :class:`~repro.session.Session`
objects behind an async dispatcher::

    import asyncio, repro
    from repro.algebra import parse_ra
    from repro.serve import Server

    async def main():
        async with Server(db, pool_size=8, engine="sqlite",
                          warm=[parse_ra("project[#0](R)")]) as server:
            answer = await server.certain(parse_ra("project[#0](R)"))
            async for batch in server.cursor(parse_ra("R")):
                ...

    asyncio.run(main())

Relation-returning reads (``certain``/``possible``/``boolean``/
``answer_object``/``knowledge``) all run on **one shared frozen session**
(:meth:`Session.freeze`): its plan cache, condition kernel and backend
handle are immutable after warm-up, so any number of pool threads can
evaluate on it concurrently without session locks (SQLite reads take
turns on the handle one statement at a time) — which is why
``pool_size`` may exceed the number of backend handles.  Only
``cursor()`` streaming checks out one of the few *mutable* sessions
(``backends=``), because a row stream holds backend cursor state for its
whole lifetime.

See ``docs/serving.md`` for pool sizing, frozen-session semantics and
cancellation latency under the pool.
"""

from .server import Server

__all__ = ["Server"]
