"""Shared error base so the CLI can map any domain failure to exit code 1.
A domain error is its class and its message; the class name is its code."""


class DomainError(Exception):
    """Base class for all domain-level failures raised by this package."""
