"""Tests for the experiment orchestration layer (grid fan-out, staging)."""
