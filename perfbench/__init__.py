"""Wall-clock benchmark with a traced per-layer breakdown (see README.md)."""
