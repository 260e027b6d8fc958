"""Reference implementations the production engines are pinned against.

The oracle is the plain, obviously-correct version of an optimised
production path: the node-object traversal for the compiled tree plans
(:mod:`tests.oracles.tree`).  Tests run a block on it with
``object_engine()``; production code carries no switch for it.
"""
