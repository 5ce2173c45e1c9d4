"""The repository benchmark: pack, get-cold and get-hot workloads (see README.md)."""
