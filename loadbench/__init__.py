"""Loaded-regime benchmark of the scheduler (see README.md)."""
