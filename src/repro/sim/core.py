"""No compiled core exists; ``benchmarks/ledger/run.py`` still records this flag."""

COMPILED = False
