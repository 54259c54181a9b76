"""Each NI suite's generator mode, for tests that draw a suite's programs.

The harness binds a suite's pc and effect-clean flag into its program
source, which passes them to `gen_welltyped`. Tests that draw or check a
suite's programs outside a trial read them here.
"""

from rescheck import HIGH, LOW

# suite: (pc, effect_clean)
MODES = {
    "soundness": (LOW, False),
    "lemma1": (LOW, False),
    "lemma2": (HIGH, False),
    "lemma5": (LOW, True),
}
