"""Workload-level parallelism across analyses.

:mod:`repro.parallel.analyze_all` backs ``repro analyze-all --jobs N``:
each worker process runs one workload's full serial analysis and the
parent aggregates the per-workload documents.
"""
