"""End-to-end benchmark of the delinquent-load pipeline (see README.md)."""
