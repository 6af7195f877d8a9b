"""Exact construction and certification of spherical designs from lattices."""
