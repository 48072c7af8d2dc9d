"""End-to-end benchmark for the CATOCS reproduction.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and how they relate.
"""
