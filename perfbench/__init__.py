"""perfbench: end-to-end and per-layer benchmark of the HeMem simulator.

See ``perfbench/README.md``.  ``python -m perfbench run`` measures,
``python -m perfbench compare`` gates, ``perfbench/run.py`` is one run.
"""
