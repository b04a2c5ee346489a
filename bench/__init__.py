"""The benchmark of record for the bdrmap reproduction (see README.md)."""
