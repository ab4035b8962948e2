"""A same-layer module: the sideways import target of a.py."""

VALUE = 1
