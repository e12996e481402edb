from hypothesis import Phase, settings

# tests/mutants.py runs the tests it names under this profile: a mutant is
# killed by the first example that fails, which need not be shrunk or explained.
settings.register_profile("mutants", phases=set(Phase) - {Phase.shrink, Phase.explain})
