"""Toolkit for Constraint Handling Rules programs.

Parse and print a small .chr rule language, run goals under two
operational semantics (a two-store one with explicit atom introduction
and a fused-store one whose goals are pre-identified), unfold rule
bodies, decide whether a rule can be replaced by its unfolded versions,
and run bounded termination, confluence and answer-equality checks.

The package binds no names of its own: import each from the module that
defines it.
"""
