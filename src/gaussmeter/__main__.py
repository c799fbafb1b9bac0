"""Run the command line as ``python -m gaussmeter``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
