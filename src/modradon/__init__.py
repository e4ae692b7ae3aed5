"""modradon: high-dynamic-range tomography with folded projections.

Forward model (analytic projections, digital anti-aliasing, centered modulo
fold) in ``forward`` and ``phantom``, difference-based unfolding in ``unfold``
and discrete filtered back projection in ``fbp``, plus batch experiment
harnesses in ``experiments`` behind the ``cli`` front end; ``core`` holds the
shared primitives and ``errors`` the exceptions.  Import names from these modules.
"""

__version__ = "0.1.0"
