"""``python -m momentdet``: the command-line interface, as ``momentdet.cli``."""

from momentdet.cli import main

if __name__ == "__main__":
    main()
