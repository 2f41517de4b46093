"""Exact homological algebra over diagram categories.

The package is organised in layers:

- ``intlinalg`` / ``fplinalg``: exact matrix arithmetic (Smith normal form,
  solving, kernels) over Z and over prime fields.
- ``rings`` / ``modules``: the two base module categories (finitely
  presented abelian groups; modules over a finite-dimensional
  F_p-algebra), with kernels, cokernels, images, biproducts, free covers
  and hom spaces.
- ``fincat`` / ``diagrams``: finite index categories and the diagram
  category C^I, with componentwise kernels, exactness, free diagrams and
  exponent functors (``functors``).
- ``complexes`` / ``derived``: chain complexes, homology, resolutions,
  connecting maps, long exact sequences and derived functors, in C and
  C^I alike.
- ``bifunctor`` / ``spectral``: tensor as a derived bifunctor with its
  two-variable ladders, and the composite-functor spectral sequence.
- ``dsl`` / ``runner`` / ``cli``: the workbench input language and driver.
"""

__version__ = "0.1.0"
