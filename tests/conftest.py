from hypothesis import settings

# A failing property prints a @reproduce_failure line, so a failure on an
# array that numpy's repr elides with "..." can still be replayed exactly.
settings.register_profile("ssae", print_blob=True)
settings.load_profile("ssae")
