"""Reference implementations that tests compare the optimized code against."""
