"""Trace recording, outcome classification and statistics helpers."""
