"""The bundled rule set — importing this package registers every rule.

Rule modules self-register via
:func:`repro.analysis.lint.register_rule`; add a new invariant by
dropping a module here and importing it below.  See
:mod:`repro.analysis` for the rule table.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (import-for-effect)
    async_blocking,
    dao_stamps,
    deadcode,
    determinism,
    error_envelope,
    lock_discipline,
    parse_lock,
)
