"""Layered benchmark of the dggrid4py_ray engine (see README.md)."""
