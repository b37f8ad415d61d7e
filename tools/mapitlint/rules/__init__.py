"""Rule plugins — importing this package registers every rule.

To add a rule: create a module here defining a
:class:`~tools.mapitlint.registry.Rule` subclass decorated with
:func:`~tools.mapitlint.registry.register`, then import it below.
"""

from tools.mapitlint.rules import (  # noqa: F401 - imports register the plugins
    cli001,
    det001,
    det002,
    det003,
    err001,
    fork001,
    fork002,
    fork003,
    io001,
    obs001,
    ora001,
    race001,
)
