"""Simulated cluster substrate: nodes, unix processes, TCP-like network.

This package replaces the paper's Grid Explorer testbed.  The key
behaviour preserved (see DESIGN.md §2) is the failure-detection
semantic the paper relies on: *killing a task immediately breaks its
TCP connections*, so a peer blocked on a receive observes the closure
right away.
"""
