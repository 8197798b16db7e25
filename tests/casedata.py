"""Expected values for the two-computer case fixtures and the worked example.

Everything here was computed by hand from the fixture timestamps (UTC), so
the tests compare engine output against independently derived constants.
"""

from conftest import epoch

FF3 = "Open FF3"
IE8 = "Open IE8"

FF3_THRESHOLD = 50
IE8_THRESHOLD = 61

# (action, detected anchor) rows every scan of the fixtures must reproduce,
# with the log-confirmed execution times they must bracket.
CONFIRMED_DETECTIONS = [
    ("computer1", FF3, epoch(2011, 7, 24, 15, 2, 31), epoch(2011, 7, 24, 15, 2, 30)),
    ("computer1", FF3, epoch(2011, 7, 24, 13, 24, 14), epoch(2011, 7, 24, 13, 23, 58)),
    ("computer2", FF3, epoch(2011, 7, 17, 20, 24, 18), epoch(2011, 7, 17, 20, 24, 14)),
    ("computer2", FF3, epoch(2011, 7, 17, 15, 23, 5), epoch(2011, 7, 17, 15, 23, 1)),
    ("computer2", FF3, epoch(2011, 7, 17, 0, 46, 36), epoch(2011, 7, 17, 0, 46, 14)),
    ("computer1", IE8, epoch(2011, 7, 23, 14, 56, 53), epoch(2011, 7, 23, 14, 56, 46)),
    ("computer2", IE8, epoch(2011, 7, 17, 15, 15, 9), epoch(2011, 7, 17, 15, 15, 6)),
]

# Computer 1 trace-state values per category (signature matching output).
C1_FF3_CORE = sorted([epoch(2011, 7, 24, 13, 24, 14), epoch(2011, 7, 24, 15, 2, 31)])
C1_FF3_SUPPORT = sorted(
    [
        epoch(2010, 12, 26, 4, 26, 24),
        epoch(2011, 7, 24, 13, 24, 10),
        epoch(2011, 1, 5, 23, 15, 34),
        epoch(2010, 12, 26, 3, 4, 55),
    ]
)
C2_IE8_CORE = [epoch(2011, 7, 17, 15, 15, 13)]
C2_IE8_SUPPORT = sorted(
    [
        epoch(2011, 7, 17, 15, 15, 9),
        epoch(2011, 3, 10, 15, 1, 1),
        epoch(2011, 3, 10, 15, 38, 37),
        epoch(2011, 3, 10, 15, 38, 37),
    ]
)

# Worked two-action example: seven observed values, thresholds of 30 s.
X = "ActionX"
Y = "ActionY"
EXAMPLE_THRESHOLD = 30
T_CORE_1 = epoch(2010, 4, 14, 19, 28, 25)
T_CORE_2 = epoch(2010, 4, 14, 19, 28, 32)
T_SUP_EARLY = epoch(2010, 4, 14, 15, 13, 25)
T_SUP_A = epoch(2010, 4, 14, 19, 28, 18)
T_SUP_B = epoch(2010, 4, 14, 19, 28, 34)
T_SHARED_NEAR = epoch(2010, 4, 14, 19, 28, 25)
T_SHARED_LATE = epoch(2010, 5, 2, 9, 45, 2)


def signature(pack, name):
    """The one signature of action ``name`` in ``pack``."""
    (found,) = [sig for sig in pack if sig.action_name == name]
    return found
