"""``python -m ctxprob``: the command-line interface of :mod:`ctxprob.cli`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
