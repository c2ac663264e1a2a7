"""JSON documents for modules, extensions and pipeline inputs.

Document layout (all numbers are plain JSON integers; a float or a
boolean anywhere, or generators that are not a list, is a ParseError):

  module          {"kind": "module", "p", "n", "precision", "generators":
                   [names], "relations": [[coeff-vector per generator]]}
                  where a coeff-vector has p^n entries, the t-th being
                  the coefficient of sigma^t: the relations are the
                  module's (r, k, p^n) array PresentedModule.relations,
                  centered.
  extension       {"kind": "extension", "p", "n", "precision",
                   "kernel_invariants": [e_1, ...], "action": t x t
                   matrix of the generator action on kernel coordinates,
                   "cocycle": d x d table of length-t coordinate vectors,
                   or the literal string "split"}
                  A saved extension has one generator per model
                  coordinate of its kernel, and its cocycle is the array
                  ExtensionData.cocycle: entry [a][b] is f(sigma^a, sigma^b).
  pipeline-input  {"kind": "pipeline-input", "p", "n", "precision",
                   "module": module document (kind omitted), "rank",
                   "free_witness": [element, ...], "ideal_witness":
                   element} with elements written as one coeff-vector
                   per generator.
  diagram         the serialization of YakovlevDiagram.

Saving centers every stored residue (values above p^N / 2 are written
as negatives), so documents survive being reloaded at a higher
precision.  load(save(load(text))) equals load(text) structurally.

Reports: machine_report gives the canonical compact one-line JSON used
for byte-comparable output; text_report renders the same dictionary
for reading.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .config import GroupConfig
from .constructions import ExtensionData, Theorem1Input, zero_extension
from .errors import ParseError
from .modules import ElementVector, PresentedModule, _centered_object
from .yakovlev import YakovlevDiagram

_KINDS = ("module", "extension", "pipeline-input", "diagram")


def _check_values(value, where: str) -> None:
    """Reject what int() and list() would silently coerce: floats and
    booleans anywhere, and a generators field that is not a list."""
    if isinstance(value, (bool, float)):
        raise ParseError(f"{where}: expected an integer, found {json.dumps(value)}")
    if isinstance(value, dict):
        if not isinstance(value.get("generators", []), list):
            raise ParseError(f"{where}: generators must be a list of names")
        for key, sub in value.items():
            _check_values(sub, f"{where}.{key}")
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _check_values(sub, f"{where}[{i}]")


def parse_document(text: str) -> dict:
    """Parse JSON text into a document dict, with positions on failure."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ParseError(f"unknown document kind {kind!r}; expected one of {_KINDS}")
    _check_values(doc, "document")
    return doc


def _require(doc: dict, key: str, where: str = "document"):
    if key not in doc:
        raise ParseError(f"{where} is missing the {key!r} field")
    return doc[key]


def _config_from(doc: dict, precision: int | None = None, guard: int | None = None) -> GroupConfig:
    p = int(_require(doc, "p"))
    n = int(_require(doc, "n"))
    prec = precision if precision is not None else int(_require(doc, "precision"))
    kwargs = {} if guard is None else {"guard": guard}
    return GroupConfig(p, n, prec, **kwargs)


def _int_matrix(raw, rows: int, cols: int, where: str) -> list:
    if len(raw) != rows or any(len(r) != cols for r in raw):
        raise ParseError(f"{where} must be a {rows} x {cols} integer matrix")
    return [[int(v) for v in row] for row in raw]


# -- modules ---------------------------------------------------------------


def module_from_dict(doc: dict, precision: int | None = None, guard: int | None = None) -> PresentedModule:
    cfg = _config_from(doc, precision, guard)
    d = cfg.order
    names = [str(x) for x in _require(doc, "generators")]
    rows = []
    for i, row in enumerate(_require(doc, "relations")):
        if len(row) != len(names):
            raise ParseError(
                f"relation {i} has {len(row)} coefficient vectors for "
                f"{len(names)} generators"
            )
        coeffs = []
        for j, vec in enumerate(row):
            if len(vec) != d:
                raise ParseError(
                    f"relation {i}, generator {j}: coefficient vector "
                    f"needs {d} entries, found {len(vec)}"
                )
            coeffs.append(tuple(int(v) for v in vec))
        rows.append(tuple(coeffs))
    return PresentedModule(cfg, names, rows)


def module_to_dict(module: PresentedModule) -> dict:
    cfg = module.cfg
    return {
        "kind": "module",
        "p": cfg.p,
        "n": cfg.n,
        "precision": cfg.precision,
        "generators": list(module.gen_names),
        "relations": _centered_object(module.relations, cfg.modulus).tolist(),
    }


# -- elements --------------------------------------------------------------


def _element_from_lists(module: PresentedModule, raw, where: str) -> ElementVector:
    d = module.cfg.order
    k = len(module.gen_names)
    if len(raw) != k:
        raise ParseError(f"{where} needs one coefficient vector per generator ({k})")
    coeffs = []
    for j, vec in enumerate(raw):
        if len(vec) != d:
            raise ParseError(f"{where}, generator {j}: vector needs {d} entries")
        coeffs.append(tuple(int(v) for v in vec))
    return module.element(coeffs)


def _element_to_lists(elt: ElementVector) -> list:
    module = elt.module
    cfg = module.cfg
    amb = linalg.matmul(module.ctx, module._lift, elt.column())
    return _centered_object(amb, cfg.modulus).reshape(-1, cfg.order).tolist()


# -- extensions --------------------------------------------------------------


def extension_from_dict(doc: dict, precision: int | None = None, guard: int | None = None) -> ExtensionData:
    cfg = _config_from(doc, precision, guard)
    d = cfg.order
    invariants = [int(e) for e in _require(doc, "kernel_invariants")]
    if any(e < 0 for e in invariants):
        raise ParseError("kernel invariants must be nonnegative exponents")
    t = len(invariants)
    action = _int_matrix(_require(doc, "action"), t, t, "action")
    names = [f"k{i}" for i in range(t)]
    # relation j: sigma * k_j - sum_i action[i][j] k_i = 0; relation t + i:
    # p^e_i k_i = 0.  Python integers, reduced by the constructor.
    rows = np.zeros((2 * t, t, d), dtype=object)
    rows[:t, :, 0] = -np.array(action, dtype=object).reshape(t, t).T
    rows[range(t), range(t), 1 % d] += 1
    rows[range(t, 2 * t), range(t), 0] = [cfg.p**e for e in invariants]
    kernel = PresentedModule(cfg, names, rows)
    raw = _require(doc, "cocycle")
    if raw == "split":
        return zero_extension(kernel)
    if len(raw) != d or any(len(r) != d for r in raw):
        raise ParseError(f"cocycle table must be {d} x {d}")
    for a, row in enumerate(raw):
        for b, vec in enumerate(row):
            if len(vec) != t:
                raise ParseError(
                    f"cocycle entry ({a}, {b}) needs {t} coordinates, found {len(vec)}"
                )
    # document coordinates are generator coefficients, reduced mod p^N
    # in Python integers before the array cast
    ctx = kernel.ctx
    coeffs = linalg.mat(ctx, [[int(c) % cfg.modulus for c in vec] for row in raw for vec in row])
    table = linalg.matmul(ctx, kernel._proj[:, ::d], coeffs.T)
    return ExtensionData(kernel, table.T.reshape(d, d, kernel.model_dim))


def extension_to_dict(ext: ExtensionData) -> dict:
    kernel = ext.kernel
    cfg = kernel.cfg
    # serialize through the kernel's coordinate model: one generator per
    # model coordinate, so elements are their own coordinate vectors
    exps = [linalg.valuation_int(kernel.ctx, q) for q in kernel.moduli]
    t = kernel.model_dim
    action = [[int(kernel.sigma_matrix[i, j]) for j in range(t)] for i in range(t)]
    table = "split" if linalg.is_zero(ext.cocycle) else ext.cocycle.tolist()
    return {
        "kind": "extension",
        "p": cfg.p,
        "n": cfg.n,
        "precision": cfg.precision,
        "kernel_invariants": exps,
        "action": action,
        "cocycle": table,
    }


# -- pipeline inputs ---------------------------------------------------------


def pipeline_input_from_dict(doc: dict, precision: int | None = None, guard: int | None = None) -> Theorem1Input:
    mod_doc = dict(_require(doc, "module"))
    for key in ("p", "n", "precision"):
        mod_doc.setdefault(key, doc.get(key))
    module = module_from_dict(mod_doc, precision, guard)
    rank = int(_require(doc, "rank"))
    free_raw = _require(doc, "free_witness")
    free = tuple(
        _element_from_lists(module, raw, f"free witness {i}")
        for i, raw in enumerate(free_raw)
    )
    ideal_w = _element_from_lists(module, _require(doc, "ideal_witness"), "ideal witness")
    return Theorem1Input(module=module, free_witness=free, ideal_witness=ideal_w, rank=rank)


def pipeline_input_to_dict(data: Theorem1Input) -> dict:
    mod_doc = module_to_dict(data.module)
    del mod_doc["kind"]
    return {
        "kind": "pipeline-input",
        "p": data.module.cfg.p,
        "n": data.module.cfg.n,
        "precision": data.module.cfg.precision,
        "module": mod_doc,
        "rank": data.rank,
        "free_witness": [_element_to_lists(w) for w in data.free_witness],
        "ideal_witness": _element_to_lists(data.ideal_witness),
    }


# -- dispatch ----------------------------------------------------------------


def load_text(text: str, precision: int | None = None, guard: int | None = None):
    """Parse and build the object a document describes.

    A field of the wrong type or value (a string where a number belongs,
    a number where a vector belongs) raises ParseError.
    """
    doc = parse_document(text)
    kind = doc["kind"]
    if kind == "diagram":
        return YakovlevDiagram.from_dict(doc)
    build = {
        "module": module_from_dict,
        "extension": extension_from_dict,
        "pipeline-input": pipeline_input_from_dict,
    }[kind]
    try:
        return build(doc, precision, guard)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed {kind} document: {exc}") from exc


def load_file(path, precision: int | None = None, guard: int | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return load_text(text, precision, guard)


def to_dict(obj) -> dict:
    if isinstance(obj, PresentedModule):
        return module_to_dict(obj)
    if isinstance(obj, ExtensionData):
        return extension_to_dict(obj)
    if isinstance(obj, Theorem1Input):
        return pipeline_input_to_dict(obj)
    if isinstance(obj, YakovlevDiagram):
        return obj.to_dict()
    raise TypeError(f"no document form for {type(obj).__name__}")


def save_text(obj) -> str:
    return json.dumps(to_dict(obj), indent=1) + "\n"


def save_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_text(obj))


# -- reports -----------------------------------------------------------------


def machine_report(doc: dict) -> str:
    """Canonical one-line JSON; byte-identical for equal dictionaries."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _text_lines(value, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                out.append(f"{pad}{key}:")
                _text_lines(sub, indent + 1, out)
            else:
                out.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for sub in value:
            if isinstance(sub, (dict, list)):
                _text_lines(sub, indent, out)
                out.append("")
            else:
                out.append(f"{pad}- {sub}")
        while out and out[-1] == "":
            out.pop()
    else:
        out.append(f"{pad}{value}")


def text_report(doc: dict) -> str:
    """Readable rendition of a report dictionary."""
    out: list = []
    _text_lines(doc, 0, out)
    return "\n".join(out) + "\n"
