"""Reference implementations that production fast paths must match with ``==``."""
