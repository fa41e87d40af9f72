import os

from hypothesis import settings

# CI replays the same examples on every run, so a failure there reproduces
# exactly; local runs keep drawing fresh ones.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
