"""Reference implementations that fast paths in ``src/`` are tested against."""
