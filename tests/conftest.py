"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` runs five times the default number of examples; the
tier-1 suite loads the default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=5 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
