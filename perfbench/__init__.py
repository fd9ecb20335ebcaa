"""Benchmark for incidencekit; see README.md in this directory."""
