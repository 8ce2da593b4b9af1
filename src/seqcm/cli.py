"""Batch command line front end.

Problem files describe a ring and an ideal:

    # comment lines start with '#'
    ring m=2 n=2 field=QQ
    ideal x1*y1 + x2*y2
    options seed=0 block=Q

Statements may also be packed on one line separated by '/'.  The keys of
``ring`` and ``options`` and the reader of each are in ``_HEADER_KEYS``; an
unknown, repeated or ill-formed assignment is a parse error at its own line
and column.  Every command emits a machine-readable result document
(deterministic for a fixed input and seed) and uses the exit codes

    0  the computation finished (negative mathematical verdicts included)
    2  the ideal class is not supported by the requested command (cd,
       grade, depth, relcm and seqcm need a bigraded ideal, a homogeneous
       one for the m block)
    3  the problem file failed to parse
    4  ``--verify`` found a disagreement; each one is printed to stderr as
       ``<file>: verify: <disagreement>``
    5  the engine could not decide: the randomized regular-form search ran
       out of its retry budget (over a small prime field)

``--verify`` checks the emitted document against the parsed input with
:func:`seqcm.certificates.verify_certificate`, which owns the certificate's
document format and recomputes a document without a verdict.  Files are
processed in sorted order, and a batch stops at the first file that fails:
its code is returned and the later files are not read.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

from .certificates import _ideal_doc, _input_sha256, _ring_doc, _verdict_doc
from .certificates import verify_certificate
from .errors import (
    NoRegularFormError,
    NotBihomogeneousError,
    NotMonomialError,
    ParseError,
    UnitIdealError,
    UnsupportedIdealClassError,
    ZeroModuleError,
    ZeroPolynomialError,
)
from .fields import QQ, field_from_name
from .filtration import (
    dimension_filtration,
    is_seq_cm,
    monomial_primary_decomposition,
    tensor_split_check,
)
from .groebner import Ideal, krull_dim
from .hypersurface import classify_hypersurface, hypersurface_stats
from .poly import BigradedRing, parse_polynomial
from .relcm import (
    IdealPair,
    VariableBlock,
    cd_wrt,
    grade_wrt,
    is_relative_cm,
)

COMMANDS = (
    "gb",
    "dim",
    "cd",
    "grade",
    "depth",
    "relcm",
    "primdec",
    "filtration",
    "seqcm",
    "hypersurface",
    "tensorcheck",
)

_UNSUPPORTED = (
    UnsupportedIdealClassError,
    NotMonomialError,
    NotBihomogeneousError,
    UnitIdealError,
    ZeroModuleError,
    ZeroPolynomialError,
)


# ---- problem files ---------------------------------------------------------------


@dataclass
class ProblemFile:
    ring: BigradedRing
    ideal: Ideal
    seed: int | None
    block: VariableBlock | None
    text: str


def _statements(text: str):
    """Yield (statement, line, column) with '#' comments stripped.

    A '/' separates statements only when flanked by whitespace, so fraction
    coefficients like 1/2 inside ideal statements survive.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        # a statement is a run of characters that are not such a '/'
        for match in re.finditer(r"(?:(?!(?<=\s)/(?=\s)).)+", line):
            chunk = match.group()
            if chunk.strip():
                yield chunk.strip(), lineno, match.end() - len(chunk.lstrip()) + 1


def _ascii_integer(pattern: str, name: str):
    """The reader of integers whose text matches ``pattern`` in full, which
    int() alone does not enforce: it takes '٢', '1_0' and '+1'.  argparse
    names a reader that refuses a value by its ``__name__``."""

    def read(text: str) -> int:
        if re.fullmatch(pattern, text) is None:
            raise ValueError(f"{name} must match {pattern}, found {text!r}")
        return int(text)

    read.__name__ = name
    return read


_read_seed = _ascii_integer("-?[0-9]+", "seed")
_read_size = _ascii_integer("[0-9]+", "ring size")

# The keys each header statement allows, with the reader of each key's value.
# A reader raises ValueError on a value it does not accept.
_HEADER_KEYS = {
    "ring": {"m": _read_size, "n": _read_size, "field": field_from_name},
    "options": {"seed": _read_seed, "block": VariableBlock.from_tag},
}


def _header(keyword: str, body: str, line: int, col: int, values: dict) -> None:
    """Read the ``key=value`` assignments of a header statement whose body
    starts at ``col`` into ``values``; an unknown, repeated or ill-formed
    assignment is a :class:`ParseError` at its own position."""
    readers = _HEADER_KEYS[keyword]
    for match in re.finditer(r"\S+", body):
        token, at = match.group(), col + match.start()
        key, eq, text = token.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, found {token!r}", line, at)
        if key not in readers:
            expected = ", ".join(readers)
            raise ParseError(f"unknown {keyword} key {key!r}; expected {expected}", line, at)
        if key in values:
            raise ParseError(f"repeated {keyword} key {key!r}", line, at)
        try:
            values[key] = readers[key](text)
        except ValueError as exc:
            raise ParseError(str(exc), line, at) from None


def parse_problem(text: str) -> ProblemFile:
    ring = None
    ideal_gens = None
    options = {}
    for statement, line, col in _statements(text):
        keyword = re.match(r"\S+", statement).group()  # ends at whitespace, a tab too
        body, body_col = statement[len(keyword) + 1 :], col + len(keyword) + 1
        if keyword == "ring":
            if ring is not None:
                raise ParseError("duplicate ring statement", line, col)
            sizes = {}
            _header(keyword, body, line, body_col, sizes)
            try:
                ring = BigradedRing(sizes["m"], sizes["n"], sizes.get("field", QQ))
            except KeyError as missing:
                raise ParseError(f"ring needs {missing.args[0]}=...", line, col)
            except ValueError as exc:
                raise ParseError(str(exc), line, body_col)
        elif keyword == "ideal":
            if ring is None:
                raise ParseError("ideal statement before ring statement", line, col)
            if ideal_gens is not None:
                raise ParseError("duplicate ideal statement", line, col)
            ideal_gens = [
                parse_polynomial(ring, chunk.group(), line, body_col + chunk.start())
                for chunk in re.finditer("[^,]+", body)
                if chunk.group().strip()
            ]
        elif keyword == "options":
            _header(keyword, body, line, body_col, options)
        else:
            raise ParseError(f"unknown statement {keyword!r}", line, col)
    if ring is None:
        raise ParseError("missing ring statement", 1, 1)
    if ideal_gens is None:
        raise ParseError("missing ideal statement", 1, 1)
    return ProblemFile(
        ring=ring,
        ideal=Ideal(ring, ideal_gens),
        seed=options.get("seed"),
        block=options.get("block"),
        text=text,
    )


# ---- result documents --------------------------------------------------------------


def run(command: str, problem: ProblemFile, block: VariableBlock, seed: int) -> dict:
    """Execute one command against a parsed problem; returns the document."""
    ring = problem.ring
    ideal = problem.ideal
    doc = {
        "command": command,
        "input_sha256": _input_sha256(problem.text),
        "ring": _ring_doc(ring),
        "generators": _ideal_doc(ideal),
        "block": block.value,
        "seed": seed,
        "invariants": {},
    }
    pair = IdealPair.cyclic(ideal)
    if command == "gb":
        doc["basis"] = [str(g) for g in ideal.groebner_basis()]
    elif command == "dim":
        dim = krull_dim(ideal)
        doc["invariants"]["dim"] = dim
        if dim < 0:
            doc["note"] = "zero module"
    elif command == "cd":
        doc["invariants"]["cd"] = cd_wrt(ideal, block)
    elif command in ("grade", "depth"):
        side = block if command == "grade" else VariableBlock.M  # depth: the block m
        witness = grade_wrt(pair, side, seed)
        doc["invariants"][command] = witness.grade
        sequence = [str(p) for p in witness.regular_sequence]
        doc["witness"] = {"regular_sequence": sequence}
    elif command == "relcm":
        report = is_relative_cm(pair, block, seed)
        doc["invariants"].update(
            {"cd": report.cd, "grade": report.grade, "relative_cm": report.relative_cm}
        )
        doc["witness"] = {
            "regular_sequence": [str(p) for p in report.regular_sequence]
        }
    elif command == "primdec":
        decomposition = monomial_primary_decomposition(ideal, block)
        doc["components"] = [
            {
                "primary": _ideal_doc(c.primary),
                "radical": _ideal_doc(c.radical),
                "cd": c.cd_value,
            }
            for c in decomposition.components
        ]
    elif command == "filtration":
        df = dimension_filtration(ideal, block)
        doc["chain"] = [_ideal_doc(d) for d in df.chain]
        doc["slices"] = [
            {
                "cd": piece.cd_value,
                "unmixed_part": _ideal_doc(piece.unmixed_part),
                "radicals": [_ideal_doc(c.radical) for c in piece.components],
            }
            for piece in df.slices
        ]
    elif command == "seqcm":
        verdict = is_seq_cm(ideal, block, seed)
        report = verdict.report  # cd, grade and relative_cm are seed independent
        doc["invariants"].update(
            {"cd": report.cd, "grade": report.grade, "relative_cm": report.relative_cm}
        )
        doc["verdict"] = _verdict_doc(verdict)
    elif command == "hypersurface":
        if block is VariableBlock.M:
            raise UnsupportedIdealClassError(
                "hypersurface classification applies to blocks P and Q"
            )
        if len(ideal.gens) != 1:
            raise UnsupportedIdealClassError(
                "hypersurface command needs exactly one nonzero generator"
            )
        f = ideal.gens[0]
        stats = hypersurface_stats(f)
        verdict = classify_hypersurface(f, block, seed, _report=stats)
        split = stats.split
        doc["invariants"].update(stats.invariants)
        doc["split"] = (
            {"h1": str(split.h1), "h2": str(split.h2)} if split is not None else None
        )
        doc["verdict"] = _verdict_doc(verdict)
    elif command == "tensorcheck":
        ring_x = set(ring.x_range)
        ring_y = set(ring.y_range)
        gens_x, gens_y = [], []
        for g in ideal.gens:
            support = g.support_variables()
            if support <= ring_x:
                gens_x.append(g)
            elif support <= ring_y:
                gens_y.append(g)
            else:
                raise UnsupportedIdealClassError(
                    f"generator {g} mixes x and y variables"
                )
        lhs, rhs = tensor_split_check(
            Ideal(ring, gens_x), Ideal(ring, gens_y), seed
        )
        doc["tensor"] = {"lhs": lhs, "rhs": rhs, "agree": lhs == rhs}
    else:
        raise ValueError(f"unknown command {command!r}")
    return doc


# ---- rendering -----------------------------------------------------------------------


def _render_text(value) -> list:
    """The lines of a document value in YAML block style: a nonempty dict
    or list opens an indented block, each list item is marked ``- ``, and
    an empty one reads ``{}`` or ``[]``, so every nesting reads apart."""
    if isinstance(value, dict) and value:
        lines = []
        for key in sorted(value):
            inner = _render_text(value[key])
            if isinstance(value[key], (dict, list)) and value[key]:
                lines += [f"{key}:", *("  " + line for line in inner)]
            else:
                lines.append(f"{key}: {inner[0]}")
        return lines
    if isinstance(value, list) and value:
        lines = []
        for item in value:
            first, *rest = _render_text(item)
            lines += [f"- {first}", *("  " + line for line in rest)]
        return lines
    return [value if isinstance(value, str) else json.dumps(value)]


def render_document(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "\n".join(_render_text(doc)) + "\n"


# ---- entry point -----------------------------------------------------------------------


@functools.cache  # parsing does not change the parser; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcm",
        description="Exact sequential Cohen-Macaulayness decisions over bigraded rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("files", nargs="+", help="problem files")
        p.add_argument("--wrt", choices=["P", "Q", "m"], default=None,
                       help="variable block (default Q, or the file's options)")
        p.add_argument("--seed", type=_read_seed, default=None,
                       help="seed for randomized searches (default 0)")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--verify", action="store_true",
                       help="re-check the emitted certificate against the input")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for path in sorted(args.files):
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:  # skips a BOM
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            return 3
        try:
            problem = parse_problem(text)
            block = (
                VariableBlock.from_tag(args.wrt)
                if args.wrt is not None
                else (problem.block or VariableBlock.Q)
            )
            seed = args.seed if args.seed is not None else (problem.seed or 0)
            doc = run(args.command, problem, block, seed)
            doc["file"] = path
        except ParseError as exc:
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            return 3
        except _UNSUPPORTED as exc:
            print(f"{path}: unsupported input: {exc}", file=sys.stderr)
            return 2
        except NoRegularFormError as exc:
            print(f"{path}: undecided: {exc}", file=sys.stderr)
            return 5
        sys.stdout.write(render_document(doc, args.format))
        if args.verify:
            problems = verify_certificate(doc, problem)
            if problems:
                for problem_line in problems:
                    print(f"{path}: verify: {problem_line}", file=sys.stderr)
                return 4
            sys.stdout.write("verified: certificate levels recomputed and agree\n")
    return 0


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
