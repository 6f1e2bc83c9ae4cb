"""The package's one exception type."""


class ContractError(ValueError):
    """A documented contract was broken: a bad input, config, artifact or call; the CLI exits 2."""
