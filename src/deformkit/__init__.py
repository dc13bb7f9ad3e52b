"""deformkit: deformed products, matrix-symbol operators, and norm hierarchies.

The package discretizes matrix-valued symbols on boxes, implements the
deformed (twisted) product driven by an antisymmetric matrix J, realizes
symbols as operators on a discretized module, and evaluates the
differential norm hierarchy together with its comparison functionals.
"""

__version__ = "0.1.0"
