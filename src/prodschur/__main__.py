"""``python -m prodschur`` and the ``prodschur`` console script: the CLI."""

import runpy


def main() -> None:
    """Run `prodschur.cli` as ``__main__``, so its process set-up runs too."""
    runpy.run_module("prodschur.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
