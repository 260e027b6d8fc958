"""Reference implementations the production engines are pinned against.

Each oracle is the plain, obviously-correct version of an optimised
production path: a single binary heap for the calendar-queue scheduler
(:mod:`tests.oracles.scheduler`) and the node-object traversal for the
compiled tree plans (:mod:`tests.oracles.tree`).  Tests swap an oracle
in with ``monkeypatch``; production code carries no switch for them.
"""
