"""Seeded violation: an upward import (plus an allowed sideways one)."""

from pkg.alpha import b  # noqa: F401  - sideways edge, allowed
import pkg.beta.top  # noqa: F401  - upward edge low -> high
