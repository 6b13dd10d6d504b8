"""The bundled data files, and the one reader every module loads them with."""

from importlib import resources


def lines(name: str) -> list[str]:
    """The stripped lines of the bundled file name, less blank lines and
    lines that start with '#'."""
    text = resources.files(__name__).joinpath(name).read_text()
    stripped = (line.strip() for line in text.splitlines())
    return [line for line in stripped if line and not line.startswith("#")]
