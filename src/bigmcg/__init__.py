"""Finite computational models for big mapping class groups.  Import the
modules: `bigmcg.qinf` (an l1 space of binary sequences with prime-line
embeddings), `bigmcg.shark` (a punctured-strip group with an exactly
witnessed length function), `bigmcg.gf2hom` (a graded GF(2) homology
norm) and `bigmcg.endspace` (a classifier of shifts on end-class tables)."""

__version__ = "0.1.0"
