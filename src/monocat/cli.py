"""Command-line front end.

Every subcommand produces a JSON report (machine interface); the text
rendering is derived from that JSON, never computed separately.  Exit
codes: 0 = ok, 1 = invariant violation or internal error (report status
``"violation"`` or ``"internal-error"``), 2 = input or usage error, an
output file that cannot be written included.  Input is validated once, at
load: a built or loaded category here, a composite by ``compose_categories``.

``main`` may be called any number of times in one process.  The argument
parser is built on the first call and reused; it names each command
function, which is looked up in this module when the command runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .bimodule import free_action_check, mult_bijection_check, tensor, validate_bimodule
from .connectivity import are_connected, connecting_category
from .core import (
    INT_TOKEN,
    Monoid,
    adjoin_identity,
    as_semigroup,
    find_identity,
    is_group,
    parse_cayley,
    sub_semigroup,
    validate_semigroup,
    word_generators,
)
from .corpus import CorpusSpec, dump_corpus, generate, standard_corpus
from .errors import AlgebraError, FormatError, require
from .ideals import LEFT, RIGHT, _kernel, _minimal, group_of, is_simple, kernel
from .rees import _decompose, rees_round_trip, rees_to_json_dict
from .twocat import (
    category_from_json_dict,
    category_to_json_dict,
    compose_categories,
    extract_simple,
    is_reduced,
    minimal_ideal_correspondence,
    standardize,
    validate_category,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass
class Report:
    command: str
    inputs: list[str]
    results: dict = field(default_factory=dict)
    status: str = "ok"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": list(self.inputs),
            "status": self.status,
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def render_text(payload, indent: int = 0) -> str:
    """Human-readable rendering derived from the JSON payload."""
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(value)}")
    else:  # a list: the payload is a report's dict, and only dicts and lists recurse
        for value in payload:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}-")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(value)}")
    return "\n".join(lines)


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return json.dumps(value)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _load_structure(path: str):
    return parse_cayley(_read_text(path))


def _coerce_monoid(structure):
    """Promote to a monoid: declared identity, discovered identity, or adjoined."""
    if isinstance(structure, Monoid):
        return structure, False
    e = find_identity(structure)
    if e is not None:
        return Monoid(structure, e), False
    return adjoin_identity(structure), True


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{where} must be a JSON object")
    return value


def _load_json(path: str) -> dict:
    try:
        payload = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"bad JSON in {path}: {exc}") from None
    return _json_object(payload, path)


def _load_category(path: str):
    payload = _load_json(path)
    if "command" in payload:  # accept a build report as well as a bare category
        payload = _json_object(payload.get("results", {}), f"results in {path}").get("category", {})
    return category_from_json_dict(payload)


def _load_valid_category(path: str):
    """A loaded category; an invalid one is a violation naming its first failed law."""
    cat = _load_category(path)
    verdict = validate_category(cat)
    if not verdict:
        raise AlgebraError(f"{path} is not a valid category: {verdict.detail}")
    return cat


def _load_bimodule(path: str):
    payload = _load_json(path)
    try:
        left = payload["left_monoid"]
        right = payload["right_monoid"]
        lm = Monoid(validate_semigroup(left["table"]), left["identity"])
        rm = Monoid(validate_semigroup(right["table"]), right["identity"])
        return validate_bimodule(lm, rm, payload["size"],
                                 payload["left_action"], payload["right_action"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad bimodule payload in {path}: {exc}") from None


def cmd_validate(args) -> Report:
    structure = _load_structure(args.file)
    base = as_semigroup(structure)
    results = {
        "n": base.n,
        "identity": structure.identity if isinstance(structure, Monoid) else find_identity(base),
        "associative": True,
    }
    return Report("validate", [args.file], results)


def _kernel_facts(monoid: Monoid):
    """The kernel, minimal ideals and group of a monoid with the counting
    checks, as ``kernel`` reports them, and the kernel as a semigroup."""
    kern, lefts, rights = (_kernel(monoid.base), _minimal(monoid.base, LEFT),
                           _minimal(monoid.base, RIGHT))
    sub, _ = sub_semigroup(monoid, kern)
    handle = group_of(monoid)
    nk, nl, nr, ng = len(kern), len(lefts[0]), len(rights[0]), handle.order
    facts = {
        "kernel": list(kern),
        "minimal_left_ideals": [list(i) for i in lefts],
        "minimal_right_ideals": [list(i) for i in rights],
        "group": {"elements": list(handle.elements), "identity": handle.identity},
        "sizes": {"kernel": nk, "L": nl, "R": nr, "G": ng},
        "kernel_simple": is_simple(sub),
        "size_identity_holds": nk * ng == nl * nr,
        "l_multiple_of_g": nl % ng == 0,
        "r_multiple_of_g": nr % ng == 0,
    }
    return facts, sub


def cmd_kernel(args) -> Report:
    monoid, adjoined = _coerce_monoid(_load_structure(args.file))
    facts, _ = _kernel_facts(monoid)
    results = {"n": monoid.n, "identity_adjoined": adjoined, **facts}
    ok = all(facts[k] for k in ("kernel_simple", "size_identity_holds",
                                "l_multiple_of_g", "r_multiple_of_g"))
    return Report("kernel", [args.file], results, "ok" if ok else "violation")


def cmd_category_build(args) -> Report:
    monoid, adjoined = _coerce_monoid(_load_structure(args.file))
    cat = connecting_category(monoid)
    verdict = validate_category(cat)
    results = {
        "identity_adjoined": adjoined,
        "groupoid": is_group(monoid),
        "hom_sizes": cat.sizes(),
        "valid": verdict.ok,
        "reduced": is_reduced(cat),
        "category": category_to_json_dict(cat),
    }
    return Report("category build", [args.file], results,
                  "ok" if verdict.ok else "violation")


def cmd_category_check(args) -> Report:
    cat = _load_category(args.file)
    verdict = validate_category(cat)
    results = {
        "hom_sizes": cat.sizes(),
        "valid": verdict.ok,
        "valid_detail": verdict.detail,
        "reduced": is_reduced(cat),
    }
    checks_ok = verdict.ok
    # the free-action and bijection facts are theorems only for a group on
    # the G side; other categories skip them with a null entry
    for name, check in (("free_actions", free_action_check), ("bijection", mult_bijection_check),
                        ("correspondence", minimal_ideal_correspondence)):
        if verdict.ok and cat._g_is_group:
            fact = check(cat)
            results[name], results[name + "_detail"] = fact.ok, fact.detail
            checks_ok = checks_ok and fact.ok
        elif verdict.ok:
            results[name] = None
    return Report("category check", [args.file], results,
                  "ok" if checks_ok else "violation")


def cmd_extract(args) -> Report:
    cat = _load_valid_category(args.file)
    ideal = extract_simple(cat)
    members = list(ideal.members)
    labels = [cat.a_elems[i] for i in members]
    results = {
        "simple_ideal_positions": members,
        "simple_ideal_labels": [str(x) for x in labels],
        "size": len(members),
        "size_identity_holds": len(members) * cat.size("G") == cat.size("L") * cat.size("R"),
        "simple": True,
    }
    status = "ok"
    if args.monoid:
        monoid, _ = _coerce_monoid(_load_structure(args.monoid))
        # labels are compared as they are: one that is not an int never matches
        match = kernel(monoid).members == tuple(labels)
        results["round_trip_matches_kernel"] = match
        if not match:
            status = "violation"
    return Report("extract", [args.file], results, status)


def cmd_rees(args) -> Report:
    structure = _load_structure(args.file)
    base = as_semigroup(structure)
    # an adjoined identity would leave the kernel as it is
    used_kernel = not is_simple(base)
    target = sub_semigroup(base, _kernel(base))[0] if used_kernel else base
    # rees_round_trip raises DecompositionFailure unless each mapping is an
    # isomorphism, certified on word generators of its table: the target
    # passed the loader's Light's test, so reaching the report means it holds.
    rms, mapping, again = rees_round_trip(target)
    round_trip = (rms.i_count, rms.group.n, rms.lambda_count) == (
        again.i_count, again.group.n, again.lambda_count)
    results = {
        "decomposed_kernel": used_kernel,
        "I": rms.i_count,
        "Lambda": rms.lambda_count,
        "group_order": rms.group.n,
        "size_identity_holds": target.n == rms.size,
        "isomorphism_verified": True,
        "round_trip_preserves_counts": round_trip,
        "mapping": {str(k): list(v) for k, v in sorted(mapping.items())},
        "rees": rees_to_json_dict(rms),
    }
    return Report("rees", [args.file], results, "ok" if round_trip else "violation")


def cmd_tensor(args) -> Report:
    x = _load_bimodule(args.x)
    y = _load_bimodule(args.y)
    ts = tensor(x, y)
    results = {
        "pair_count": x.size * y.size,
        "class_count": ts.class_count,
        "representatives": [list(r) for r in ts.reps],
        "classes": [[list(p) for p in cls] for cls in ts.classes],
        "induced_left_action": [list(r) for r in ts.bimodule.left_action],
        "induced_right_action": [list(r) for r in ts.bimodule.right_action],
    }
    return Report("tensor", [args.x, args.y], results)


def cmd_compose(args) -> Report:
    c1 = _load_valid_category(args.c1)
    c2 = _load_valid_category(args.c2)
    # compose_categories raises IllDefinedComposition unless the composite
    # passes validate_category, so reaching the report means it is valid.
    composite = compose_categories(c1, c2)
    results = {
        "hom_sizes": composite.sizes(),
        "valid": True,
        "category": category_to_json_dict(composite),
    }
    return Report("compose", [args.c1, args.c2], results)


def cmd_connect(args) -> Report:
    ma, _ = _coerce_monoid(_load_structure(args.a))
    mb, _ = _coerce_monoid(_load_structure(args.b))
    outcome = are_connected(ma, mb)
    ga, gb = outcome.groups
    results = {
        "connected": outcome.connected,
        "group_orders": [ga.order, gb.order],
        "group_profiles_match": outcome.profiles[0] == outcome.profiles[1],
    }
    if outcome.connected:
        # the witness comes from compose_categories, which has validated it
        witness = outcome.witness
        results["witness_hom_sizes"] = witness.sizes()
        results["witness_valid"] = True
        if args.witness:
            _write_text(args.witness, json.dumps(category_to_json_dict(witness), indent=2) + "\n")
            results["witness_file"] = args.witness
    return Report("connect", [args.a, args.b], results)


def cmd_corpus(args) -> Report:
    if args.family == "standard":
        entries = standard_corpus()
    else:
        spec = CorpusSpec(args.family, tuple(map(_corpus_param, args.params)), seed=args.seed)
        monoids = generate(spec)
        entries = [
            (spec.name() if len(monoids) == 1 else f"{spec.name()}[{i}]", m)
            for i, m in enumerate(monoids)
        ]
    try:
        files = dump_corpus(entries, args.out)
    except OSError as exc:
        raise FormatError(f"cannot write {args.out}: {exc}") from None
    results = {"count": len(entries), "directory": args.out, "files": files}
    return Report("corpus", [args.family, *map(str, args.params)], results)


def _corpus_param(tok: str):
    """``tok`` as an int when it is ASCII ``-?[0-9]+``, else as it is;
    ``str.isdigit`` would also take "²", which ``int`` refuses."""
    if INT_TOKEN.fullmatch(tok) is None:
        return tok
    if len(tok) > 100:  # int() refuses thousands of digits; no family needs 100
        raise FormatError(f"corpus parameter of {len(tok)} digits")
    return int(tok)


def _suite_entry(monoid: Monoid) -> dict:
    """The per-structure verification battery; one boolean per check."""
    facts, sub = _kernel_facts(monoid)
    checks = {
        "kernel_simple": facts["kernel_simple"],
        "size_identity": facts["size_identity_holds"],
        "multiples": facts["l_multiple_of_g"] and facts["r_multiple_of_g"],
    }
    group_input = is_group(monoid)
    cat = connecting_category(monoid)
    if not group_input:
        # category_from_monoid has required the bound on these kept sizes
        checks["nongroup_bound"] = True
    checks["category_valid"] = validate_category(cat).ok
    checks["free_actions"] = free_action_check(cat).ok
    checks["bijection"] = mult_bijection_check(cat).ok
    checks["correspondence"] = minimal_ideal_correspondence(cat).ok
    if not group_input:
        checks["round_trip"] = list(extract_simple(cat).members) == facts["kernel"]
        std = standardize(cat)
        # the minimal ideals standardize starts from both hold min(kernel) = k,
        # so its idempotent is k*k⁻¹ = e and it rebuilds the envelope itself,
        # whose Light's test has run above
        require(std.category == cat, "standardizing an envelope gives the envelope back")
        checks["standardize_valid"] = checks["category_valid"]
    # the kernel of a loaded monoid is associative, so a certificate on its
    # generators verifies the mapping; DecompositionFailure otherwise
    _decompose(sub, word_generators(sub.table))
    checks["rees_isomorphism"] = True
    return checks


def cmd_suite(args) -> Report:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise FormatError(f"{args.dir} is not a directory")
    files = sorted(p.name for p in directory.glob("*.cayley"))
    if not files:
        raise FormatError(f"no .cayley files in {args.dir}")
    entries = {}
    all_ok = True
    for name in files:
        try:
            monoid, _ = _coerce_monoid(_load_structure(str(directory / name)))
            checks = _suite_entry(monoid)
        except AlgebraError as exc:
            entries[name] = {"error": str(exc), "passed": False}
            all_ok = False
            continue
        passed = all(checks.values())
        entries[name] = {**checks, "passed": passed}
        all_ok = all_ok and passed
    results = {
        "count": len(files),
        "passed": sum(1 for e in entries.values() if e["passed"]),
        "entries": entries,
    }
    return Report("suite", [args.dir], results, "ok" if all_ok else "violation")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser; it holds each command by name (see above)."""
    parser = argparse.ArgumentParser(
        prog="monocat",
        description="Finite monoids, simple semigroups, and connecting categories.",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress text output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a product table file")
    p.add_argument("file")
    p.set_defaults(func="cmd_validate")

    p = sub.add_parser("kernel", help="kernel, minimal ideals, and the group")
    p.add_argument("file")
    p.set_defaults(func="cmd_kernel")

    p = sub.add_parser("category", help="build or check a two-object category")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pb = csub.add_parser("build")
    pb.add_argument("file")
    pb.set_defaults(func="cmd_category_build")
    pc = csub.add_parser("check")
    pc.add_argument("file")
    pc.set_defaults(func="cmd_category_check")

    p = sub.add_parser("extract", help="extract the simple ideal L*R of a category")
    p.add_argument("file")
    p.add_argument("--monoid", help="compare against this monoid's kernel")
    p.set_defaults(func="cmd_extract")

    p = sub.add_parser("rees", help="Rees matrix decomposition")
    p.add_argument("file")
    p.set_defaults(func="cmd_rees")

    p = sub.add_parser("tensor", help="tensor two bimodules over their middle monoid")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func="cmd_tensor")

    p = sub.add_parser("compose", help="glue two categories along the middle monoid")
    p.add_argument("c1")
    p.add_argument("c2")
    p.set_defaults(func="cmd_compose")

    p = sub.add_parser("connect", help="decide connectivity of two monoids")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--witness", metavar="PATH", help="write the witness category here")
    p.set_defaults(func="cmd_connect")

    p = sub.add_parser("corpus", help="emit corpus structures as table files")
    p.add_argument("family", help="a family name, or 'standard'")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--out", default="corpus_out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func="cmd_corpus")

    p = sub.add_parser("suite", help="run the verification battery on a corpus directory")
    p.add_argument("dir")
    p.set_defaults(func="cmd_suite")

    return parser


def _emit(report: Report, args) -> None:
    if args.json:
        _write_text(args.json, report.to_json())
    if not args.quiet and report.status != "error":
        sys.stdout.write(render_text(report.to_dict()) + "\n")


def _failure(args, message: str, status: str) -> Report:
    """A failure report, naming the command and inputs as its ok report would."""
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    given = vars(args)
    inputs = [given[name] for name in ("file", "a", "b", "x", "y", "c1", "c2", "dir", "family")
              if name in given]
    return Report(command, [*inputs, *given.get("params", ())], {"error": message}, status)


def _run(args) -> Report:
    """The command's report; a failure becomes a report with its status."""
    try:
        return globals()[args.func](args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _failure(args, str(exc), "error")
    except AlgebraError as exc:
        return _failure(args, str(exc), "violation")
    except AssertionError as exc:  # a fault of monocat, not of the input
        return _failure(args, str(exc), "internal-error")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = _run(args)
    try:
        _emit(report, args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if report.status == "error":
        return EXIT_USAGE
    return EXIT_OK if report.status == "ok" else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
