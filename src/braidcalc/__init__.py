"""Braid words, normal forms, link moves, and diagram templates.

The package models braids on a fixed strand count as signed generator
words, computes Garside left normal forms and a conjugacy verdict,
fingerprints closures by component count and Alexander polynomial,
applies and replays the Markov move vocabulary, expands block-strand
diagram templates, checks foliation census arithmetic, and searches
for complexity-reducing move towers.
"""

__version__ = "0.1.0"
