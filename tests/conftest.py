from hypothesis import settings

# Property tests draw the same examples on every run, so a failure repeats on the next run
# (a fresh checkout has no example database to replay it from).  Tests keep their own
# max_examples and deadline.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
