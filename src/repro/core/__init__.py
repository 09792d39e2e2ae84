"""Error localization over a trained IR2vec detector."""

from repro.core.localize import (
    SuspectCallSite,
    SuspectFunction,
    localize_call_sites,
    localize_error,
)

__all__ = [
    "localize_error", "localize_call_sites",
    "SuspectFunction", "SuspectCallSite",
]
