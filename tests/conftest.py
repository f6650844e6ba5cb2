"""The hypothesis profile of the property tests: derandomized, so every run
draws the same examples, with no example database and no deadline."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("qrdiv", derandomize=True, database=None, deadline=None,
                              max_examples=100)
    settings.load_profile("qrdiv")
