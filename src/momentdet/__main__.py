"""``python -m momentdet``: the command-line interface, through ``momentdet.cli.entry_point``."""

from momentdet.cli import entry_point

if __name__ == "__main__":
    entry_point()
