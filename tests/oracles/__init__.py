"""Frozen pre-refactor implementations kept only as differential oracles."""
