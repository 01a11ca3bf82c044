"""Operational semantics: two-store and fused-store readings plus search."""
