"""Exception types shared across the package, and the size caps.

Each exception maps to a process exit code in the command line front end:
InvalidInputError -> 2, CapExceededError -> 3, InfeasibleError -> 4,
RetriesExhaustedError -> 5.

CAPS holds every size limit of the package. A computation whose size grows
with the block length or the alphabets checks that size through
require_cap before it allocates, so an oversized request raises
CapExceededError instead of exhausting memory; three thresholds read CAPS
directly to choose a method or a chunk size. Entries are read at call time,
so --cap-override (or a config file's "caps") changes one run by
replacing entries for its duration.
"""


class ChansimError(Exception):
    """Base class for package errors."""


class InvalidInputError(ChansimError):
    """Malformed or out-of-contract input (bad distribution, bad config)."""


class CapExceededError(ChansimError):
    """A requested computation exceeds its enumeration or size cap."""


class InfeasibleError(ChansimError):
    """No object with the requested properties exists for these parameters."""


class RetriesExhaustedError(ChansimError):
    """A randomized construction failed all covering.DEFAULT_MAX_RETRIES draws."""


CAPS = {
    # entries of any list enumerated at once: the words of one type class,
    # the types of one length over k cells, C(n + k - 1, k - 1), with
    # k = |X|·|Y| for joint types (2 x 2 reaches n = 226, 3 x 3 n = 18),
    # and the zero-error vertex table, c_max entries for each support of
    # at most |Y| of the c_max decoder rows (3 x 3 at c_max 8 has 736)
    "WORD_ENUM_CAP": 2_000_000,
    # block length n of the exact typical-set mass
    "EXACT_PROB_N_CAP": 170,
    # entries of a covering counts table (N x |T_S|) or compatibility matrix
    # (|T_R| x |T_S|); at 2^25 the int64 table and the float64 copies
    # verification makes stay under about 1 GB together, and the BSC(1/4)
    # sweep needs about 2.9 M at n = 13
    "COVER_TABLE_CAP": 1 << 25,
    # output words |Y|^n of one exact output law
    "OUTPUT_ENUM_CAP": 1 << 20,
    # entries of a block table over X^n x Y^n, of one chunk of pinned block
    # laws, and of one input type's message-law blocks
    "BLOCK_ENUM_CAP": 1 << 22,
    # entries of the block laws measure_fidelity or a family holds at once
    "FIDELITY_ENUM_CAP": 1 << 24,
    # largest n at which derandomize verifies its sample on the exact laws
    "EXACT_VERIFY_N_CAP": 6,
    # vertex combinations the zero-error E step searches exactly, above
    # which it runs coordinate descent
    "EXACT_COMBO_CAP": 20000,
    # larger of |X| and |Y| for the zero-error grid oracle
    "ORACLE_XY_CAP": 3,
    # intermediate alphabet c_max for the zero-error grid oracle
    "ORACLE_C_CAP": 4,
    # multisets of D rows the zero-error grid oracle visits
    "ORACLE_MULTISET_CAP": 1 << 16,
    # channels the rate-distortion grid oracle scores
    "GRID_ORACLE_CAP": 1 << 24,
}


def require_cap(name: str, value: int, what: str):
    """Raise CapExceededError when value is above CAPS[name].

    what describes the checked quantity; a "{}" in it stands for value. The
    message, built only when it raises, ends ", above NAME = limit".
    """
    limit = CAPS[name]
    if value > limit:
        raise CapExceededError(f"{what.format(value)}, above {name} = {limit}")
