"""Settings shared by the test modules."""

from hypothesis import settings

# Property tests must give the same result on every run and on a loaded
# machine: examples come from a fixed seed, and no example has a deadline.
settings.register_profile("reprogram-lab", deadline=None, derandomize=True)
settings.load_profile("reprogram-lab")
