"""Independent checks of entspace CLI output, using only the standard library.

Nothing here imports ``entspace``: the level structure, the expected
dimensions and the product-vector tests are rebuilt from the argv alone, so
a bug in the package's own serializer or verifier cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

NO_WITNESS = "no-product-vector-found"
WITNESS = "witness-found"

# Spaces the workloads name, with the verdict a correct verifier must reach.
EXPECTED_VERDICT = {"S": NO_WITNESS, "example1": NO_WITNESS,
                    "example2-M": NO_WITNESS, "Sperp": WITNESS}

# An ALS overlap this close to 1 is a product vector; S must stay below it.
ALS_WITNESS_OVERLAP = 1 - 1e-6

# Every workload invocation is built so that its verdict matches.
EXPECTED_EXIT = 0


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Subcommand and its ``--flag value`` options (``--min`` maps to "")."""
    command, rest = argv[0], argv[1:]
    opts: dict[str, str] = {}
    i = 0
    while i < len(rest):
        key = rest[i]
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            opts[key] = rest[i + 1]
            i += 2
        else:
            opts[key] = ""
            i += 1
    return command, opts


def levels(dims: tuple[int, ...]) -> list[int]:
    """Index sum of every basis position, in lexicographic order."""
    return [sum(idx) for idx in product(*(range(d) for d in dims))]


def candidate_count(dims: tuple[int, ...], p: int) -> int:
    """Projective product tuples over F_p: the brute-force walk's test count."""
    return math.prod((p**d - 1) // (p - 1) for d in dims)


def check(argv: list[str], rc: int | None, stdout: bytes) -> str | None:
    """None when the invocation's exit code and stdout are right, else why not."""
    if rc != EXPECTED_EXIT:
        return f"exit code {rc}, expected {EXPECTED_EXIT}"
    try:
        _check_output(argv, stdout.decode("utf-8"))
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _check_output(argv: list[str], text: str) -> None:
    command, opts = parse_argv(argv)
    dims = tuple(int(d) for d in opts["--dims"].split(","))
    if command == "construct":
        _check_construct(dims, opts, text)
    elif command == "verify":
        _check_verify(dims, opts, json.loads(text))
    elif command == "classify":
        _check_classify(dims, int(opts["--prime"]), json.loads(text))
    elif command == "upb":
        _check_upb(dims, opts, json.loads(text))
    else:
        raise CheckFailed(f"no check for command {command!r}")


# -- construct ---------------------------------------------------------------

def _rows_from_json(doc: dict, dims: tuple[int, ...]) -> list[list[Fraction]]:
    _require(doc["dims"] == list(dims), f"dims {doc['dims']} != {list(dims)}")
    _require(doc["field"] == "rational", f"field {doc['field']!r} is not rational")
    return [[Fraction(c) for c in v["coeffs"]] for v in doc["vectors"]]


def _rows_from_csv(text: str, dims: tuple[int, ...]) -> list[list[Fraction]]:
    _require(len(dims) == 2, "csv output needs two factors")
    d1, d2 = dims
    rows = []
    for block in text.strip().split("\n\n"):
        lines = block.strip().splitlines()
        _require(len(lines) == d1, f"csv matrix has {len(lines)} rows, expected {d1}")
        cells = [line.split(",") for line in lines]
        _require(all(len(c) == d2 for c in cells), f"csv matrix row is not {d2} wide")
        rows.append([Fraction(c.strip()) for line in cells for c in line])
    return rows


def _check_echelon(rows: list[list[Fraction]]) -> None:
    """Reduced row-echelon form: increasing unit pivots, cleared columns."""
    pivots = []
    for r, row in enumerate(rows):
        piv = next((i for i, c in enumerate(row) if c), None)
        _require(piv is not None, f"row {r} is zero")
        _require(row[piv] == 1, f"row {r} pivot is {row[piv]}, not 1")
        _require(not pivots or piv > pivots[-1], f"row {r} pivot {piv} does not increase")
        pivots.append(piv)
    for r, row in enumerate(rows):
        for s, piv in enumerate(pivots):
            _require(s == r or not row[piv], f"row {r} is nonzero in pivot column {piv}")


def _level_sums(row: list[Fraction], lv: list[int], top: int) -> list[Fraction]:
    sums = [Fraction(0)] * (top + 1)
    for c, n in zip(row, lv):
        if c:
            sums[n] += c
    return sums


def _check_construct(dims: tuple[int, ...], opts: dict, text: str) -> None:
    space = opts["--space"]
    if opts.get("--format", "json") == "csv":
        rows = _rows_from_csv(text, dims)
    else:
        rows = _rows_from_json(json.loads(text), dims)
    total, lv = math.prod(dims), levels(dims)
    top = max(lv)
    _require(all(len(r) == total for r in rows), f"a row is not {total} long")
    _check_echelon(rows)
    if space in ("S", "example1", "example2-M"):
        want = {"example2-M": 8}.get(space, total - (top + 1))
        _require(len(rows) == want, f"{space} has {len(rows)} rows, expected {want}")
        for r, row in enumerate(rows):
            _require(not any(_level_sums(row, lv, top)),
                     f"{space} row {r} is not orthogonal to every level sum")
    elif space == "Sperp":
        _require(len(rows) == top + 1, f"Sperp has {len(rows)} rows, expected {top + 1}")
        for r, row in enumerate(rows):
            per_level = [set() for _ in range(top + 1)]
            for c, n in zip(row, lv):
                per_level[n].add(c)
            _require(all(len(s) == 1 for s in per_level),
                     f"Sperp row {r} is not a combination of level sums")
    else:
        raise CheckFailed(f"no check for space {space!r}")


# -- product vectors ---------------------------------------------------------

def _expand(factors: list[list], mod: int | None = None) -> list:
    coeffs = [1]
    for f in factors:
        coeffs = [c * a for c in coeffs for a in f]
    return [c % mod for c in coeffs] if mod else coeffs


def _check_fp_product_in_sperp(entry: dict, dims: tuple[int, ...], p: int, what: str) -> None:
    factors = [[int(c) for c in f] for f in entry["factors"]]
    _require([len(f) for f in factors] == list(dims), f"{what} factor lengths are wrong")
    coeffs = [int(c) for c in entry["coeffs"]]
    _require(coeffs == _expand(factors, p), f"{what} coeffs are not its factors' product")
    per_level: dict[int, set] = {}
    for c, n in zip(coeffs, levels(dims)):
        per_level.setdefault(n, set()).add(c)
    _require(all(len(s) == 1 for s in per_level.values()),
             f"{what} is not in Sperp mod {p}")


def _complex_overlap_with_sperp(coeffs: list[complex], dims: tuple[int, ...]) -> float:
    """Squared norm of the projection of the unit vector onto Sperp."""
    norm2 = sum(abs(c) ** 2 for c in coeffs)
    sums: dict[int, complex] = {}
    counts: dict[int, int] = {}
    for c, n in zip(coeffs, levels(dims)):
        sums[n] = sums.get(n, 0) + c
        counts[n] = counts.get(n, 0) + 1
    return sum(abs(sums[n]) ** 2 / counts[n] for n in sums) / norm2


# -- verify / classify / upb ---------------------------------------------------

def _check_verify(dims: tuple[int, ...], opts: dict, doc: dict) -> None:
    space, method = opts["--space"], opts.get("--method", "ff")
    want = EXPECTED_VERDICT[space]
    _require(doc["dims"] == list(dims) and doc["space"] == space and doc["method"] == method,
             "verify header does not echo the request")
    _require(doc["expected"] == want, f"expected {doc['expected']!r}, should be {want!r}")
    _require(doc["verdict"] == want, f"verdict {doc['verdict']!r}, expected {want!r}")
    reports = doc["reports"]
    if method == "ff":
        primes = [int(p) for p in opts["--primes"].split(",")]
        _require([r["params"]["p"] for r in reports] == primes, "one report per prime")
        for rep, p in zip(reports, primes):
            _require(rep["verdict"] == want, f"p={p} verdict {rep['verdict']!r}")
            _require(rep["metrics"]["tests"] == candidate_count(dims, p),
                     f"p={p} reports {rep['metrics']['tests']} tests")
            found = rep["metrics"]["found"]
            if want == WITNESS:
                _require(found == p + 1, f"p={p} found {found}, expected {p + 1}")
                _check_fp_product_in_sperp(rep["witness"], dims, p, f"p={p} witness")
            else:
                _require(found == 0 and rep["witness"] is None, f"p={p} found {found}")
    else:
        (rep,) = reports
        _require(rep["params"]["restarts"] == int(opts["--restarts"])
                 and rep["params"]["seed"] == int(opts["--seed"]),
                 "als params do not echo the request")
        best = rep["metrics"]["best_overlap"]
        if want == WITNESS:
            _require(best > ALS_WITNESS_OVERLAP, f"als best overlap {best} on Sperp")
            coeffs = [complex(c["re"], c["im"]) for c in rep["witness"]["coeffs"]]
            ov = _complex_overlap_with_sperp(coeffs, dims)
            _require(ov > ALS_WITNESS_OVERLAP, f"als witness overlaps Sperp only {ov}")
        else:
            _require(best < ALS_WITNESS_OVERLAP and rep["witness"] is None,
                     f"als best overlap {best} on {space}")


def _check_classify(dims: tuple[int, ...], p: int, doc: dict) -> None:
    _require(doc["dims"] == list(dims) and doc["p"] == p, "classify header does not echo the request")
    _require(doc["passed"] is True, "classify did not pass")
    _require(doc["expected_count"] == p + 1 and doc["found_count"] == p + 1,
             f"found_count {doc['found_count']}, expected {p + 1}")
    _require(len(doc["found"]) == p + 1 and not doc["missing"] and not doc["extraneous"],
             "classify lists missing or extraneous points")
    keys = set()
    for i, entry in enumerate(doc["found"]):
        _check_fp_product_in_sperp(entry, dims, p, f"point {i}")
        keys.add(tuple(entry["coeffs"]))
    _require(len(keys) == p + 1, "classify points are not distinct")


def _check_upb(dims: tuple[int, ...], opts: dict, doc: dict) -> None:
    rep = doc["report"]
    size = len(doc["vectors"])
    top = sum(d - 1 for d in dims)
    want = top + 1 if "--min" in opts else int(opts["--size"])
    _require(size == want and rep["size"] == want, f"upb has {size} vectors, expected {want}")
    _require(rep["is_upb"] is True, "upb report says not a UPB")
    _require(rep["span_dim"] == size, f"span_dim {rep['span_dim']} != size {size}")
    _require(rep["complement_dim"] == math.prod(dims) - size, "complement_dim is wrong")
    _require(all(r["verdict"] == NO_WITNESS for r in rep["ff_reports"]),
             "an ff report found a product vector in the complement")
    for i, entry in enumerate(doc["vectors"]):
        factors = [[Fraction(c) for c in f] for f in entry["factors"]]
        coeffs = [Fraction(c) for c in entry["coeffs"]]
        _require(coeffs == _expand(factors), f"vector {i} coeffs are not its factors' product")
