"""The repo's benchmark: time-to-verdict per workload, cost per layer (see README.md)."""
