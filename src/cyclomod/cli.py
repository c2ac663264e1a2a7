"""Command-line front end.

Commands:

  cohomology FILE           invariant-factor table of both parities at
                            every subgroup level, optionally with the
                            transfer matrices
  delta FILE                the level diagram of a module document
  delta-compare FILE FILE   diagram isomorphism verdict
  construct ...             build and save module/extension documents
  verify SUITE              run a named battery; a battery rejects the
                            group options it does not read

Exit codes: 0 verified / built, 1 failed or rejected input, 2 the
search gave up (undecided).  Every battery exits 2 when a search gives
up on one of its checks and no check fails.  Machine-format reports
are canonical one-line JSON and byte-stable for fixed seeds.  The
default working precision can be set with the CYCLOMOD_PRECISION
environment variable.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .cohomology import corestriction, restriction, tate
from .config import DEFAULT_GUARD, GroupConfig, IsoSearchConfig, default_precision
from .constructions import (
    ExtensionData,
    Theorem1Input,
    cocycle_from_section,
    j_module,
    lemma2_pipeline,
    splitting_module,
)
from .errors import CyclomodError, ParseError, PrecisionExhausted
from .modules import PresentedModule, Submodule
from .suites import (
    ALL_SUITES,
    PROP5_INSTANCES,
    SuiteReport,
    suite_axioms,
    suite_lemma3,
    suite_prop5,
    suite_splitting,
)
from .verdicts import Undecided
from .yakovlev import DiagramIso, YakovlevDiagram, delta, diagrams_isomorphic

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2.

    Exit code 2 is reserved for undecided search outcomes; a malformed
    command line is a rejected input.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="cyclomod",
        description="computations with finitely presented modules over "
        "cyclic p-group rings",
    )
    top.add_argument("--p", type=int, default=None, help="prime (default 3)")
    top.add_argument("--n", type=int, default=None, help="group order exponent (default 1)")
    top.add_argument(
        "--precision",
        type=int,
        default=None,
        help="working precision N (default: CYCLOMOD_PRECISION or max(n + guard + 8, 3n))",
    )
    top.add_argument("--guard", type=int, default=None, help="guard band width")
    top.add_argument("--seed", type=int, default=0, help="search seed")
    top.add_argument("--max-samples", type=int, default=512)
    top.add_argument("--enum-bound", type=int, default=4)
    top.add_argument("--format", choices=("text", "machine"), default="text")
    top.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohomology", help="invariant table of a module document")
    c.add_argument("file")
    c.add_argument("--maps", action="store_true", help="include transfer matrices")

    dl = sub.add_parser("delta", help="level diagram of a module document")
    dl.add_argument("file")

    dc = sub.add_parser("delta-compare", help="compare two level diagrams")
    dc.add_argument("file1")
    dc.add_argument("file2")

    cons = sub.add_parser("construct", help="build and save documents")
    csub = cons.add_subparsers(dest="what", required=True)
    sm = csub.add_parser("split-module", help="middle term of an extension document")
    sm.add_argument("--extension", required=True, help="extension document path")
    sm.add_argument("--save", default=None, help="write the module document here")
    jm = csub.add_parser("j-module", help="the p^e-scaled sublattice with the norm line")
    jm.add_argument("--e", type=int, required=True)
    jm.add_argument("--save", default=None)
    l2 = csub.add_parser("lemma2", help="run the kernel-of-projection pipeline")
    l2.add_argument("--input", required=True, help="pipeline-input document path")
    l2.add_argument("--save-a", default=None, help="write the finite kernel module here")
    l2.add_argument("--save-b", default=None, help="write the middle module here")
    cc = csub.add_parser("cocycle", help="re-extract a class table through a fresh section")
    cc.add_argument("--extension", required=True, help="extension document path")
    cc.add_argument("--save", default=None, help="write the re-extracted extension here")

    v = sub.add_parser("verify", help="run a named battery")
    v.add_argument("suite", choices=sorted(ALL_SUITES))
    v.add_argument("--e-max", type=int, default=None, help="lemma3: cap the family index")
    v.add_argument("--count", type=int, default=25, help="axioms: modules per config")
    v.add_argument("--r", type=int, default=None, help="prop5: number of cyclic summands")
    v.add_argument("--e", type=int, action="append", default=None, help="prop5: summand exponent (repeatable)")
    return top


def _session_config(args) -> GroupConfig:
    p = args.p if args.p is not None else 3
    n = args.n if args.n is not None else 1
    guard = args.guard if args.guard is not None else DEFAULT_GUARD
    precision = args.precision if args.precision is not None else default_precision(n, guard)
    return GroupConfig(p, n, precision, guard)


def _search_config(args) -> IsoSearchConfig:
    return IsoSearchConfig(
        seed=args.seed,
        max_samples=args.max_samples,
        enumeration_bound=args.enum_bound,
    )


def _load(args, path, want):
    obj = fileio.load_file(path, precision=args.precision, guard=args.guard)
    if not isinstance(obj, want):
        raise ParseError(
            f"{path}: expected a {want.__name__} document, found {type(obj).__name__}"
        )
    return obj


def _emit(args, doc: dict) -> None:
    text = fileio.machine_report(doc) if args.format == "machine" else fileio.text_report(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _invariant_table(module: PresentedModule, with_maps: bool) -> dict:
    cfg = module.cfg
    levels = []
    for level in range(1, cfg.n + 1):
        entry = {
            "level": level,
            "even": list(tate(module, 0, level).invariants),
            "odd": list(tate(module, 1, level).invariants),
        }
        levels.append(entry)
    out = {"module": module.describe(), "levels": levels}
    if with_maps:
        maps = []
        for level in range(1, cfg.n):
            for degree in (0, 1):
                res = restriction(module, degree, level + 1, level)
                cor = corestriction(module, degree, level, level + 1)
                maps.append(
                    {
                        "degree": degree,
                        "from": level + 1,
                        "to": level,
                        "restriction": [[int(v) for v in row] for row in res.matrix],
                    }
                )
                maps.append(
                    {
                        "degree": degree,
                        "from": level,
                        "to": level + 1,
                        "corestriction": [[int(v) for v in row] for row in cor.matrix],
                    }
                )
        out["maps"] = maps
    return out


def _cmd_cohomology(args) -> int:
    module = _load(args, args.file, PresentedModule)
    doc = {"command": "cohomology", "config": module.cfg.describe()}
    doc.update(_invariant_table(module, args.maps))
    _emit(args, doc)
    return EXIT_PASS


def _cmd_delta(args) -> int:
    module = _load(args, args.file, PresentedModule)
    diagram = delta(module)
    doc = {"command": "delta", "config": module.cfg.describe()}
    doc.update(diagram.to_dict())
    _emit(args, doc)
    return EXIT_PASS


def _cmd_delta_compare(args) -> int:
    m1 = _load(args, args.file1, PresentedModule)
    m2 = _load(args, args.file2, PresentedModule)
    verdict = diagrams_isomorphic(delta(m1), delta(m2), _search_config(args))
    doc = {
        "command": "delta-compare",
        "first": m1.describe(),
        "second": m2.describe(),
        "verdict": type(verdict).__name__,
    }
    if isinstance(verdict, DiagramIso):
        doc["levels"] = [
            [[int(v) for v in row] for row in mat] for mat in verdict.level_matrices
        ]
        code = EXIT_PASS
    elif isinstance(verdict, Undecided):
        doc["reason"] = verdict.reason
        code = EXIT_UNDECIDED
    else:
        doc["reason"] = verdict.reason
        code = EXIT_FAIL
    _emit(args, doc)
    return code


def _cmd_construct(args) -> int:
    if args.what == "j-module":
        cfg = _session_config(args)
        module = j_module(cfg, args.e)
        doc = {
            "command": "construct.j-module",
            "config": cfg.describe(),
            "e": args.e,
            "module": module.describe(),
        }
        if args.save:
            fileio.save_file(args.save, module)
            doc["saved"] = args.save
        _emit(args, doc)
        return EXIT_PASS
    if args.what == "split-module":
        ext = _load(args, args.extension, ExtensionData)
        built = splitting_module(ext)
        doc = {
            "command": "construct.split-module",
            "config": ext.kernel.cfg.describe(),
            "kernel": ext.kernel.describe(),
            "module": built.module.describe(),
            "normalized": ext.is_normalized(),
        }
        if args.save:
            fileio.save_file(args.save, built.module)
            doc["saved"] = args.save
        _emit(args, doc)
        return EXIT_PASS
    if args.what == "cocycle":
        ext = _load(args, args.extension, ExtensionData)
        built = splitting_module(ext)
        fresh = cocycle_from_section(
            built.projection, Submodule(built.kernel_hom.source, built.kernel_hom)
        )
        doc = {
            "command": "construct.cocycle",
            "config": ext.kernel.cfg.describe(),
            "kernel": fresh.kernel.describe(),
            "normalized": fresh.is_normalized(),
        }
        if args.save:
            fileio.save_file(args.save, fresh)
            doc["saved"] = args.save
        _emit(args, doc)
        return EXIT_PASS
    data = _load(args, args.input, Theorem1Input)
    res = lemma2_pipeline(data)
    doc = {
        "command": "construct.lemma2",
        "config": data.module.cfg.describe(),
        "input": data.module.describe(),
        "kernel": res.kernel.module.describe(),
        "kernel_invariants": list(res.kernel.module.torsion_invariants()),
        "middle": res.b.describe(),
        "witness_levels": sorted(
            f"degree {deg} level {lvl}" for (deg, lvl) in res.witnesses
        ),
    }
    if args.save_a:
        fileio.save_file(args.save_a, res.kernel.module)
        doc["saved_a"] = args.save_a
    if args.save_b:
        fileio.save_file(args.save_b, res.b)
        doc["saved_b"] = args.save_b
    _emit(args, doc)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    given = [opt for opt in ("p", "n", "precision", "guard") if getattr(args, opt) is not None]
    # lemma3 and axioms run at the session config, prop5 reads --n with --r/--e.
    at_session = args.suite in ("lemma3", "axioms")
    one_prop5 = args.suite == "prop5" and (args.r is not None or bool(args.e))
    ignored = [f"--{opt}" for opt in given if not (at_session or one_prop5 and opt == "n")]
    if one_prop5 and args.n not in (None, 1, 2):
        ignored.append(f"--n {args.n} (prop5 runs at n = 1 or 2)")
    if ignored:
        print(f"verify {args.suite}: does not take {', '.join(ignored)}", file=sys.stderr)
        return EXIT_FAIL
    search = _search_config(args)
    configs = (_session_config(args),) if at_session and given else None
    if args.suite == "lemma3":
        report = suite_lemma3(configs=configs, search=search, e_max=args.e_max)
    elif args.suite == "axioms":
        report = suite_axioms(seed=args.seed, configs=configs, count=args.count)
    elif args.suite == "splitting":
        report = suite_splitting(seed=args.seed, search=search)
    elif args.suite == "prop5":
        instances = None
        if one_prop5:
            r = args.r if args.r is not None else len(args.e or ())
            exps = tuple(args.e) if args.e else (1,) * r
            n = args.n if args.n is not None else 1
            instances = ((r, exps, n),)
        report = suite_prop5(instances=instances, search=search)
    else:
        report = ALL_SUITES[args.suite](search=search)
    doc = {"command": f"verify.{args.suite}"}
    doc.update(report.to_dict())
    _emit(args, doc)
    if report.status == "pass":
        return EXIT_PASS
    if report.status == "undecided":
        return EXIT_UNDECIDED
    return EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; usage errors exit EXIT_FAIL through _Parser.error.
        return EXIT_PASS if exc.code in (0, None) else EXIT_FAIL
    try:
        if args.command == "cohomology":
            return _cmd_cohomology(args)
        if args.command == "delta":
            return _cmd_delta(args)
        if args.command == "delta-compare":
            return _cmd_delta_compare(args)
        if args.command == "construct":
            return _cmd_construct(args)
        return _cmd_verify(args)
    except PrecisionExhausted as exc:
        print(
            f"PrecisionExhausted: {exc}\n"
            "advice: raise the working precision (--precision or "
            "CYCLOMOD_PRECISION) and rerun",
            file=sys.stderr,
        )
        return EXIT_FAIL
    except (CyclomodError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
