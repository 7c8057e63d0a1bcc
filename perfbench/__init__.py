"""Benchmark of the search engine: build, serve and ingest workloads
checked against an independent oracle (see README.md)."""
