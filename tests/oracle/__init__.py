"""Deliberately naive reference implementations the fast kernels are checked
against (the first piece of the ROADMAP's independent oracle).  Test-only:
nothing under ``src/`` may import from here."""
