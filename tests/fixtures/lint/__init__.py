"""Fixture corpus for the ``repro.lint`` analyzer tests.

One ``bad_*`` module per rule, each triggering exactly the finding its
name says and each a mutant of real code that the test suite does not
catch (see ``docs/static-analysis.md``), plus ``good.py`` /
``good_entities.py`` counterparts that stay clean and ``suppressed.py``
for the suppression-comment semantics. The modules are never imported
by tests — only parsed — so they may reference undefined helpers freely.
"""
