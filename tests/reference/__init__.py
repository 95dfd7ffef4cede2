"""Test-only reference implementations.

Each module here is a slow, obviously correct model of one production
layer, kept only so tests can pin the production path against it.
Nothing under ``src/`` imports this package.
"""
