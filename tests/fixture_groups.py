"""The groups with a golden table fixture, for the test modules to share."""

I2_FIXTURE_GROUPS = [f"I2({m})" for m in range(5, 13)]

# E8 among them
FIXTURE_GROUPS = ["A7", "B5", "B6", "D5", "D6", "E6", "E7", "E8", "F4", "H3", "H4"] + I2_FIXTURE_GROUPS
