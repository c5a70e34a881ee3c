"""The repository's benchmark: four workloads, end to end and by layer.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` explains
the workloads, the metrics and how to read a traced report.
"""
