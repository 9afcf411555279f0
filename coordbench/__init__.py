"""End-to-end coordination benchmark.

A closed-loop load generator over the scenario catalog: one client, one
request in flight, every event issued when the previous one returns.
``python3 coordbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload and prints its metrics; NOTES.md
explains the workloads, the metrics and the bounds.
"""
