"""Benchmark of the mgplan siting, sweep, and dispatch paths."""
