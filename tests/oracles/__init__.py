"""Reference implementations the test suite compares ``src/`` against.

Nothing here is importable from product code: an oracle shares no
switch with the engine it checks.
"""
