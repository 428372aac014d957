"""Tier-1 reads no detector config from the environment: BGPBURST_CONFIG
would change every detect and analyze run.  The tests of that route set it
themselves."""

import os

os.environ.pop("BGPBURST_CONFIG", None)
