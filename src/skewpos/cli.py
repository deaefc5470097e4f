"""Batch command-line interface.

Subcommands: inspect, sample, splice, verify, quiver, plabic, mutate.  Each
computes one document, which main writes to stdout or --out.  Exit codes: 0
success, 1 property failure (a failed check, or a point off the cut's chart),
2 input error.  All output is deterministic for a fixed configuration: keys are
sorted and rationals are serialized canonically.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from itertools import chain, islice, starmap
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .braid import beta, render
from .cluster import exchange_products, mutate, quiver_dot, quiver_json, seed_at
from .diagram import BoxRef, Partition, SkewDiagram
from .linalg import ratio_to_str
from .permutations import baf, necklace, necklace_to_baf, verify_f_factorization, w_skew
from .plabic import ascii_grid, trips_json, verify_trips
from .splicing import OffChart, splice_report
from .variety import PointV, omega, sample, xi

MAX_TRIALS = 10_000  # the largest --trials; a trial takes milliseconds, so this many run in about a minute
MAX_BOUND = 10 ** 6  # the largest --bound; the sampler's integers, and every minor's bit length, grow with it


def subseed(seed: int, *parts) -> int:
    """Deterministic sub-seed derived from the run seed and a tag tuple."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).hexdigest()
    return int(digest[:16], 16)


def load_json(source: str, option: str) -> dict:
    """The JSON object given to --option, inline or as the path of a JSON file."""
    try:
        if source.lstrip().startswith(("{", "[")):
            doc = json.loads(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    except RecursionError:
        raise ValueError(f"--{option} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"--{option} must be a JSON object, not {type(doc).__name__}")
    return doc


def load_diagram(source: str) -> SkewDiagram:
    return SkewDiagram.from_json(load_json(source, "diagram"))


def sample_input(d: SkewDiagram, args, normalize_r1: bool = False) -> PointV:
    """``sample`` of d by --seed and --bound; a sampler out of attempts is an input error (exit 2)."""
    try:
        return sample(d, args.seed, bound=args.bound, normalize_r1=normalize_r1)
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc


def load_point(args, d: SkewDiagram) -> PointV:
    """The point given to --point, which must lie on d, or else a sample of d by --seed and --bound."""
    if not args.point:
        return sample_input(d, args)
    V = PointV.from_json(load_json(args.point, "point"))
    if V.diagram != d:
        raise ValueError("point diagram differs from --diagram")
    return V


def box_ref(text: str) -> BoxRef:
    """The --box value 'a,i'; argparse exits 2 on the ValueError of any other text."""
    a, i = map(int, text.split(","))
    return BoxRef(a, i)


def positive_int(cap: int | None = None):
    """The argparse type of a --trials, --bound or --column value: argparse exits 2 on all but 1..cap."""
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {text}")
        return value
    return positive_int


_INTS, _ROWS = frozenset((int,)), frozenset((list, tuple, BoxRef))  # supersets of the item types of a batch
# the text of a plain int, str, bool or None, by exact type: bool and int subclasses differ from int
_SCALARS = {int: str, str: encode_basestring_ascii, bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` byte for byte, for documents with string keys.
    A run of like values is written as one batch (``_batch``): plain scalars of one type, int rows of
    one width by one template, records of one key set column by column, and lists whose items batch
    together.  A batch visits values out of document order, so where the writer raises (a key that is
    not a string, an int too long for str(), a value of no JSON type), json.dumps runs on the whole
    document to raise what it raises first."""
    try:
        return _text(doc, "\n")
    except (TypeError, ValueError):
        json.dumps(doc, sort_keys=True, indent=2)
        raise


def _text(doc, pad: str) -> str:
    """The text of doc at indent pad; non-empty containers match by exact type, the rest goes to json."""
    kind, inner = type(doc), pad + "  "
    if kind is dict and doc:
        keys = sorted(doc)
        texts = map("{}: {}".format, map(encode_basestring_ascii, keys), _items(list(map(doc.get, keys)), inner))
        return "{" + inner + ("," + inner).join(texts) + pad + "}"
    if kind in _ROWS and doc:
        return "[" + inner + ("," + inner).join(_items(doc, inner)) + pad + "]"
    return json.dumps(doc, sort_keys=True, indent=2).replace("\n", pad)


def _items(values, pad: str) -> list[str]:
    """The texts of non-empty values, each at indent pad: as one batch, or else one by one."""
    return _batch(values, pad) or [_SCALARS[type(x)](x) if type(x) in _SCALARS else _text(x, pad) for x in values]


def _batch(values, pad: str) -> list[str] | None:
    """The texts of non-empty values at indent pad when all are of one kind, else None: plain ints,
    strs, bools or Nones by one map; lists, tuples or BoxRefs of one width of plain ints by one str.format
    template; other lists whose items batch, cut back into lists; dicts of one key set by column."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and next(iter(kinds)) in _SCALARS:
        return list(map(_SCALARS[kinds.pop()], values))
    inner = pad + "  "
    if _ROWS.issuperset(kinds):
        flat = list(chain.from_iterable(values))
        if len(set(map(len, values))) == 1 and _INTS.issuperset(map(type, flat)):
            template = "[" + inner + ("," + inner).join(["{}"] * len(values[0])) + pad + "]" if values[0] else "[]"
            return list(starmap(template.format, values))
        texts = _batch(flat, inner)
        if texts is not None:
            texts, sep = iter(texts), "," + inner
            return ["[" + inner + sep.join(islice(texts, len(x))) + pad + "]" if x else "[]" for x in values]
    elif kinds == {dict}:
        keys = sorted(values[0])
        if keys and all(map(values[0].keys().__eq__, map(dict.keys, values))):
            fields = (encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + ": {}" for key in keys)
            template = "{{" + inner + ("," + inner).join(fields) + pad + "}}"
            return list(map(template.format, *(_items(list(map(itemgetter(key), values)), inner) for key in keys)))
    return None


def emit(doc, out: str | None) -> None:
    text = doc if isinstance(doc, str) else _json_text(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def random_diagram(rng: random.Random, max_n: int = 12) -> SkewDiagram:
    """A skew diagram with 4 <= n <= max_n, drawn by ``rng.randint`` alone."""
    n = rng.randint(4, max_n)
    k = rng.randint(1, n - 1)
    lam = []
    prev = n - k
    for _ in range(k):
        prev = rng.randint(0, prev)
        lam.append(prev)
    lam = [p for p in lam if p > 0]
    mu = []
    prev = None
    for lj in lam:
        hi = lj if prev is None else min(lj, prev)
        prev = rng.randint(0, hi)
        mu.append(prev)
    return SkewDiagram(n, k, Partition(tuple(lam)), Partition(tuple(mu)))


# -- subcommands ------------------------------------------------------------------


def cmd_inspect(args) -> tuple[dict, int]:
    d = load_diagram(args.diagram)
    word, columns = beta(d)
    rib = d.ribbon()
    return {
        "diagram": d.to_json(),
        "necklace": necklace(d).entries,
        "f": baf(d).window,
        "I_mu": d.I_mu(),
        "I_lambda": d.I_lambda(),
        "labels": {f"a{b.a}i{b.i}": d.long_label(b.a, b.i) for b in d.boxes()},
        "braid": {"k": word.strands, "letters": word.letters, "columns": columns, "text": render(columns)},
        "ribbon": {"R": rib.R, "Rbar": rib.Rbar, "R1": rib.R1},
        "quiver": quiver_json(d),
    }, 0


def cmd_sample(args) -> tuple[dict, int]:
    return sample_input(load_diagram(args.diagram), args, args.normalize_r1).to_json(), 0


def cmd_render(args) -> tuple[dict | str, int]:
    """quiver and plabic: the renderer that --format names in the subcommand's table.  The table holds
    names, looked up at each call, so a rebinding of the module's function (perfbench's tracer) is seen."""
    return globals()[args.renderers[args.format]](load_diagram(args.diagram)), 0


def cmd_splice(args) -> tuple[dict, int]:
    doc = splice_report(load_point(args, load_diagram(args.diagram)), args.column)
    return doc, 0 if all(v == "pass" for v in doc["checks"].values()) else 1


def cmd_mutate(args) -> tuple[dict, int]:
    s = seed_at(load_point(args, load_diagram(args.diagram)))
    box = args.box
    new = mutate(s, box)
    return {
        "box": [box.a, box.i],
        "old_value": str(s.value(box)),
        "new_value": str(new.value(box)),
        "exchange_ratio": ratio_to_str(*exchange_products(s, box)),
        "values": {f"a{b.a}i{b.i}": str(x) for b, x in new.values},
    }, 0


def _trial_checks(d: SkewDiagram, seed: int, only: str | None, column: int | None):
    """Run one property-trial; yields (name, ok, detail)."""
    def want(name):
        return only is None or only == name

    if want("combinatorics"):
        ok = necklace_to_baf(necklace(d)).window == baf(d).window and verify_f_factorization(d)
        ok = ok and len(w_skew(d).word) == d.size()
        word = beta(d)[0]
        ok = ok and len(word) + len(d.ribbon().R1) == d.size()
        yield "combinatorics", ok, None
    if want("plabic"):
        try:
            verify_trips(d)
            yield "plabic", True, None
        except AssertionError as exc:
            yield "plabic", False, str(exc)
    if only in (None, "membership", "roundtrip", "splice"):
        V = sample(d, seed)
        if want("membership"):
            yield "membership", True, None  # a PointV lies on its variety by construction
        if want("roundtrip"):
            ok = xi(omega(V)) == V
            yield "roundtrip", ok, None
        if want("splice"):
            # --column c runs splice@c alone, and no splice check on a diagram with fewer columns
            for a in [t for t in range(1, d.n - d.k + 1) if column in (None, t)]:
                try:
                    rep = splice_report(V, a)
                except OffChart:  # never at a fully frozen column: seed_at raises on a vanishing frozen value
                    continue
                ok = all(v == "pass" for v in rep["checks"].values())
                yield f"splice@{a}", ok, None if ok else rep["checks"]


def _guarded(checks):
    """The checks of one trial; an exception ends the trial as one failed "crash" check."""
    try:
        yield from checks
    except Exception as exc:
        yield "crash", False, f"{type(exc).__name__}: {exc}"


def cmd_verify(args) -> tuple[dict, int]:
    base = args.seed
    failures = []
    checks = 0
    if args.diagram:
        if args.trials is not None:
            raise ValueError("--trials conflicts with --diagram, which runs one trial")
        d = load_diagram(args.diagram)
        if args.column is not None and args.column > d.n - d.k:
            raise ValueError(f"cut column {args.column} out of range 1..{d.n - d.k}")
        diagrams = [(0, d)]
    else:  # drawn one per trial, so a diagram and the cuts and quivers it keeps are freed after it
        diagrams = ((t, random_diagram(random.Random(subseed(base, "diagram", t))))
                    for t in range(args.trials or 50))
    trials = 0
    for t, d in diagrams:
        trials += 1
        for name, ok, detail in _guarded(_trial_checks(d, subseed(base, "point", t), args.only, args.column)):
            checks += 1
            if not ok:
                failures.append(
                    {"trial": t, "diagram": d.to_json(), "seed": subseed(base, "point", t),
                     "check": name, "column": args.column, "detail": detail}
                )
    return {
        "trials": trials,
        "checks": checks,
        "failures": failures,
        "status": "pass" if not failures else "fail",
    }, 0 if not failures else 1


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewpos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "seed": dict(type=int, default=1),
        "bound": dict(type=positive_int(MAX_BOUND), default=100),
        "trials": dict(type=positive_int(MAX_TRIALS), default=None, help="random diagrams to test (default 50); not with --diagram"),
        "point": dict(default=None, help="path to point JSON or inline JSON"),
    }

    def command(name, func, summary, *names, needs_diagram=True):
        """A subcommand with --diagram, --out and the named shared options; each is read by func."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--diagram", required=needs_diagram, help="path to diagram JSON or inline JSON")
        for opt in names:
            p.add_argument(f"--{opt}", **options[opt])
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    command("inspect", cmd_inspect, "labels, necklace, affine permutation, braid, ribbon, quiver")

    p = command("sample", cmd_sample, "sample an exact rational point", "seed", "bound")
    p.add_argument("--normalize-r1", action="store_true",
                   help="rescale free columns so the top-of-column minors equal 1")

    for name, summary, renderers in (
        ("quiver", "emit the initial quiver", {"json": "quiver_json", "dot": "quiver_dot"}),
        ("plabic", "emit lattice trips and the label table", {"json": "trips_json", "text": "ascii_grid"}),
    ):
        p = command(name, cmd_render, summary)
        p.add_argument("--format", choices=list(renderers), default="json")
        p.set_defaults(renderers=renderers)

    p = command("splice", cmd_splice, "split a point along a column and verify the identities",
                "seed", "bound", "point")
    p.add_argument("--column", type=positive_int(), required=True)

    p = command("mutate", cmd_mutate, "mutate the initial seed at a box", "seed", "bound", "point")
    p.add_argument("--box", type=box_ref, required=True, help="box as 'a,i'")

    p = command("verify", cmd_verify, "run the property suite on random diagrams and points",
                "seed", "trials", needs_diagram=False)
    p.add_argument("--column", type=positive_int(), default=None)
    p.add_argument(
        "--only",
        choices=["combinatorics", "plabic", "membership", "roundtrip", "splice"],
        default=None,
    )
    return parser


def main(argv=None) -> int:
    """Run one subcommand, write its document to stdout or --out, and map its errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args)
        emit(doc, args.out)
    except OffChart as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
