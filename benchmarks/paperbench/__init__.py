"""The paper's evaluation (Sec. 7.3): figure harness, renderers, baselines.

``harness`` measures and ``reporting`` renders Figs. 6-9, Sec. 7.3.4 and the
ablations; ``lineage``, ``lazy`` and ``annotations`` are the Titian-,
PROVision- and Lipstick-style baselines they compare against; ``auditing``
is the Sec. 7.3.5 leaked-result analysis.  None of it is part of the
``repro`` package.  The ``benchmarks/bench_*.py`` scripts import it from
``benchmarks/`` (pytest puts that directory on ``sys.path``); the tests and
``examples/debugging_pipeline.py`` add ``benchmarks/`` to ``sys.path``
themselves.  Regenerate a figure with
``python -m pytest benchmarks/bench_<figure>.py -s``.
"""
