"""Executable specifications the production engines are tested against.

Each module is the paper's (or the baseline's) algorithm written one record
at a time, with no use of the batched kernels it checks:

* :mod:`oracles.em` — the per-record EM (Equations 12-14) and the localized
  incremental sweep, the oracle of :mod:`repro.core.em_kernel`;
* :mod:`oracles.accopt` — the scalar Lemma-2 accuracy recursion and greedy
  Algorithm 1, the oracle of :mod:`repro.core.accuracy_kernel` and the
  AccOpt engines;
* :mod:`oracles.dawid_skene` — the per-observation Dawid & Skene (1979) loop,
  the oracle of :class:`~repro.baselines.dawid_skene.DawidSkeneInference`;
* :mod:`oracles.hull` — Andrew's monotone chain over every point, the oracle
  of the prefiltered :func:`~repro.spatial.geometry.convex_hull_indices`.

Nothing under ``src/`` imports these modules; ``tests/test_layering.py``
enforces that.
"""
