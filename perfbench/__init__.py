"""Seeded, fixed-work benchmark of the detection system (see run.py)."""
