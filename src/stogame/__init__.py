"""stogame: solve, decompose and synthesize strategy automata for finite
multiplayer stochastic games.

The package re-exports nothing, so `import stogame` loads no submodule and
no numpy.  Import from the modules themselves, for instance
`from stogame.pipeline import run_pipeline`; README's library layout lists
what each module holds.
"""

__version__ = "0.1.0"
