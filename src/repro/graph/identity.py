"""Structural identities: the engine's one blake2b hashing surface.

Three consumers share the canonical hashing that used to be spread over
``core/recovery.py`` (fault draws), ``utils.py`` (``tokenize``) and ad
hoc per-feature code:

- **fault injection** draws a seeded uniform from a *structural*
  identity — ``(stage index, topological priority, attempt)`` — via
  :func:`structural_draw`, so one seed fires the same faults in serial
  and thread execution mode and across sessions;
- **the result cache** addresses stored chunk values by
  *content-derived* identities: :func:`compute_chunk_identities` hashes
  each chunk's operator chain, canonicalized parameters and source-data
  fingerprints into a key that is stable across sessions (runtime chunk
  keys are canonicalized away) — the same computation always hashes to
  the same identity, and a mutated source hashes to a different one;
- **tests/utilities** use :func:`tokenize` for short deterministic
  digests of plain values.

Identities must never depend on process-global state: runtime keys
(``c-00000123``-style counters), object addresses and unhashable opaque
objects are either canonicalized to placeholders or poison the identity
(``None`` = uncacheable), never silently hashed.
"""

from __future__ import annotations

import hashlib
import re
import types
from typing import Any, Callable, Iterable, Optional

import numpy as np

#: process-global runtime keys produced by ``utils.new_key``:
#: ``<prefix>-<8 digits>``, optionally under a session key namespace
#: (``session-3/c-00000042``). They differ across sessions for the same
#: program, so canonicalization replaces them with their bare prefix —
#: the namespace is stripped too, keeping identities session-stable
#: (cross-tenant cache hits depend on this).
_RUNTIME_KEY_RE = re.compile(r"^(?:[\w.-]+/)*[a-z]+-\d{8}$")

#: default ``repr`` of address-carrying objects — opaque, uncacheable.
_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")

#: sentinel: a value that cannot be canonicalized deterministically.
#: Its presence anywhere in an operator's parameters poisons the chunk's
#: identity (the chunk — and everything downstream — is uncacheable).
OPAQUE = object()


def structural_draw(seed: int, *identity: Any) -> float:
    """Uniform ``[0, 1)`` value derived from ``seed`` and an identity.

    Byte-for-byte the draw the fault injector has always used: the
    payload is the ``:``-joined ``str`` of every part, hashed with an
    8-byte blake2b digest.
    """
    payload = ":".join(str(part) for part in (seed,) + identity)
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def tokenize(*parts: Any) -> str:
    """Deterministic short hash of the given parts (for cache keys)."""
    hasher = hashlib.blake2b(digest_size=10)
    for part in parts:
        hasher.update(repr(part).encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# value fingerprints: hash the *content* of source data
# ---------------------------------------------------------------------------

def _array_fingerprint(arr: np.ndarray, hasher) -> bool:
    """Feed one ndarray's dtype/shape/content into ``hasher``.

    Returns False when the array holds objects that cannot be hashed
    deterministically.
    """
    hasher.update(str(arr.dtype).encode())
    hasher.update(str(arr.shape).encode())
    if arr.dtype == object:
        for item in arr.ravel():
            if not isinstance(item, (str, bytes, int, float, bool,
                                     np.generic, type(None), tuple)):
                return False
            hasher.update(repr(item).encode())
        return True
    data = np.ascontiguousarray(arr)
    hasher.update(data.tobytes())
    return True


def value_fingerprint(value: Any) -> Optional[str]:
    """Content hash of a source data value, or ``None`` if unhashable.

    Understands NumPy arrays and the ``repro.frame`` containers (duck
    typed on their ``_data``/``_columns``/``_index`` internals so this
    module stays free of upward imports). A fingerprint covers dtype,
    shape, column names, index labels and raw bytes — any in-place
    mutation changes it.
    """
    hasher = hashlib.blake2b(digest_size=16)
    if _feed_value(value, hasher):
        return hasher.hexdigest()
    return None


def _feed_value(value: Any, hasher) -> bool:
    if value is None or isinstance(value, (str, bytes, int, float, bool,
                                           np.generic)):
        hasher.update(repr(value).encode())
        return True
    if isinstance(value, np.ndarray):
        return _array_fingerprint(value, hasher)
    # repro.frame.DataFrame: dict of column arrays + columns + index.
    data = getattr(value, "_data", None)
    if isinstance(data, dict):
        columns = getattr(value, "_columns", None)
        names = (list(columns) if columns is not None
                 else sorted(data, key=repr))
        hasher.update(repr(names).encode())
        for name in names:
            if not _feed_value(data[name], hasher):
                return False
        return _feed_index(getattr(value, "_index", None), hasher)
    # repro.frame.Series: values array + name + index.
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):
        hasher.update(repr(getattr(value, "name", None)).encode())
        if not _array_fingerprint(values, hasher):
            return False
        return _feed_index(getattr(value, "_index", None), hasher)
    if isinstance(value, (list, tuple)):
        hasher.update(f"seq:{len(value)}".encode())
        return all(_feed_value(item, hasher) for item in value)
    return False


def _feed_index(index: Any, hasher) -> bool:
    if index is None:
        hasher.update(b"noindex")
        return True
    start = getattr(index, "start", None)
    if start is not None and not hasattr(index, "values"):
        hasher.update(f"range:{start}:{len(index)}".encode())
        return True
    values = getattr(index, "values", None)
    if isinstance(values, np.ndarray):
        return _array_fingerprint(values, hasher)
    hasher.update(repr(index).encode())
    return True


# ---------------------------------------------------------------------------
# parameter canonicalization: strip runtime/process-local state
# ---------------------------------------------------------------------------

def canonical_param(value: Any, _fingerprints: dict | None = None) -> Any:
    """A session-stable token for an operator parameter.

    Returns a nested structure of plain values safe to ``repr``-hash, or
    :data:`OPAQUE` when the parameter cannot be canonicalized (the
    operator is then uncacheable). Handles:

    - runtime keys (``new_key`` counters) → their prefix placeholder;
    - callables → module/qualname/bytecode/consts plus the canonical
      values of their closure cells (two lambdas sharing a qualname but
      closing over different values hash differently);
    - data values (arrays, frames) → content fingerprints;
    - graph entities, actors, open handles → :data:`OPAQUE`.
    """
    if value is None or isinstance(value, (bool, int, float, bytes,
                                           np.generic)):
        return ("lit", repr(value))
    if isinstance(value, str):
        if _RUNTIME_KEY_RE.match(value):
            return ("rtkey", value.rsplit("/", 1)[-1].split("-", 1)[0])
        return ("lit", value)
    if isinstance(value, np.dtype):
        return ("dtype", str(value))
    if isinstance(value, type):
        return ("type", value.__module__, value.__qualname__)
    if isinstance(value, (list, tuple)):
        items = []
        for item in value:
            canon = canonical_param(item, _fingerprints)
            if canon is OPAQUE:
                return OPAQUE
            items.append(canon)
        return ("seq", type(value).__name__, tuple(items))
    if isinstance(value, (set, frozenset)):
        items = []
        for item in value:
            canon = canonical_param(item, _fingerprints)
            if canon is OPAQUE:
                return OPAQUE
            items.append(canon)
        return ("set", tuple(sorted(items, key=repr)))
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            ck = canonical_param(key, _fingerprints)
            cv = canonical_param(item, _fingerprints)
            if ck is OPAQUE or cv is OPAQUE:
                return OPAQUE
            items.append((ck, cv))
        return ("map", tuple(sorted(items, key=repr)))
    if isinstance(value, np.ndarray):
        return _data_token(value, _fingerprints)
    data = getattr(value, "_data", None)
    if isinstance(data, dict) or isinstance(getattr(value, "values", None),
                                            np.ndarray):
        # repro.frame containers: fingerprint content, never repr.
        return _data_token(value, _fingerprints)
    if isinstance(value, functools_partial_types):
        func = canonical_param(value.func, _fingerprints)
        args = canonical_param(tuple(value.args), _fingerprints)
        kw = canonical_param(dict(value.keywords or {}), _fingerprints)
        if OPAQUE in (func, args, kw):
            return OPAQUE
        return ("partial", func, args, kw)
    if isinstance(value, types.MethodType):
        func = canonical_param(value.__func__, _fingerprints)
        owner = canonical_param(value.__self__, _fingerprints)
        if func is OPAQUE or owner is OPAQUE:
            return OPAQUE
        return ("method", func, owner)
    if callable(value):
        return _callable_token(value, _fingerprints)
    rendered = repr(value)
    if _ADDR_RE.search(rendered):
        return OPAQUE
    return ("repr", type(value).__name__, rendered)


import functools  # noqa: E402  (kept close to its single use)

functools_partial_types = (functools.partial,)


def _data_token(value: Any, fingerprints: dict | None) -> Any:
    """Fingerprint a data value, memoized per planning pass by ``id``.

    The memo is scoped to one identity computation: repeated hashing of
    a multi-chunk source frame costs one pass, while mutation *between*
    runs (a fresh memo) is still detected.
    """
    if fingerprints is not None:
        cached = fingerprints.get(id(value))
        if cached is not None:
            return cached if cached is not OPAQUE else OPAQUE
    fp = value_fingerprint(value)
    token = ("data", fp) if fp is not None else OPAQUE
    if fingerprints is not None:
        fingerprints[id(value)] = token if fp is not None else OPAQUE
    return token


def _code_token(code: types.CodeType,
                fingerprints: dict | None) -> Any:
    consts = []
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            inner = _code_token(const, fingerprints)
            if inner is OPAQUE:
                return OPAQUE
            consts.append(inner)
        else:
            canon = canonical_param(const, fingerprints)
            if canon is OPAQUE:
                return OPAQUE
            consts.append(canon)
    return ("code", code.co_name, code.co_code.hex(), tuple(consts),
            code.co_names, code.co_varnames[:code.co_argcount])


def _callable_token(func: Callable, fingerprints: dict | None) -> Any:
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", getattr(func, "__name__", None))
    code = getattr(func, "__code__", None)
    if code is None:
        # builtins / NumPy ufuncs: module+name is the whole identity.
        if module is None or qualname is None:
            return OPAQUE
        return ("builtin", module, qualname)
    code_tok = _code_token(code, fingerprints)
    if code_tok is OPAQUE:
        return OPAQUE
    cells = []
    for cell in func.__closure__ or ():
        try:
            contents = cell.cell_contents
        except ValueError:  # empty cell
            cells.append(("cell", "empty"))
            continue
        canon = canonical_param(contents, fingerprints)
        if canon is OPAQUE:
            return OPAQUE
        cells.append(canon)
    defaults = canonical_param(tuple(func.__defaults__ or ()), fingerprints)
    if defaults is OPAQUE:
        return OPAQUE
    return ("fn", module, qualname, code_tok, tuple(cells), defaults)


# ---------------------------------------------------------------------------
# chunk identities: the content-addressed cache keys
# ---------------------------------------------------------------------------

#: operator attributes that are graph plumbing, not parameters.
_SKIP_ATTRS = frozenset({"params", "inputs", "outputs", "stage"})


def _op_token(op: Any, fingerprints: dict) -> Any:
    """Canonical token of one operator: class, stage, params, data attrs.

    Data-bearing instance attributes outside ``params`` (e.g. the source
    frame a ``FromFrameSlice`` holds) are captured by walking
    ``vars(op)`` — that is where source-content fingerprints enter the
    identity.
    """
    parts: list[Any] = [
        ("op", type(op).__module__, type(op).__qualname__),
        ("stage", op.stage),
    ]
    attrs = dict(vars(op))
    for name in sorted(attrs):
        if name in _SKIP_ATTRS or name.startswith("_"):
            continue
        canon = canonical_param(attrs[name], fingerprints)
        if canon is OPAQUE:
            return OPAQUE
        parts.append((name, canon))
    canon_params = canonical_param(op.params, fingerprints)
    if canon_params is OPAQUE:
        return OPAQUE
    parts.append(("params", canon_params))
    return tuple(parts)


def compute_chunk_identities(
    chunks_in_order: Iterable[Any],
    known: dict[str, tuple[Optional[str], tuple]] | None = None,
) -> tuple[dict[str, Optional[str]], dict[str, frozenset]]:
    """Content-addressed identity of every chunk, in one topological pass.

    ``chunks_in_order`` must be topologically ordered chunk data nodes
    (producers before consumers). ``known`` resolves boundary chunks —
    materialized sources whose producing inputs are not in the graph —
    to ``(identity, ancestor identities)`` recorded by an earlier pass.

    Returns ``(identities, ancestors)``: runtime chunk key → identity
    hex digest (``None`` = uncacheable) and runtime chunk key → the
    frozenset of all ancestor identities (the cache's invalidation
    edges). A ``None`` identity poisons every downstream chunk.
    """
    known = known or {}
    identities: dict[str, Optional[str]] = {}
    ancestors: dict[str, frozenset] = {}
    fingerprints: dict[int, Any] = {}
    memo_ops: dict[int, Any] = {}
    for chunk in chunks_in_order:
        key = chunk.key
        resolved = known.get(key)
        if resolved is not None and resolved[0] is not None:
            identities[key] = resolved[0]
            ancestors[key] = frozenset(resolved[1])
            continue
        op = chunk.op
        if op is None:
            identities[key] = None
            ancestors[key] = frozenset()
            continue
        dep_idents: list[str] = []
        dep_anc: set[str] = set()
        poisoned = False
        for dep in op.inputs:
            ident = identities.get(dep.key)
            if ident is None:
                dep_resolved = known.get(dep.key)
                if dep_resolved is not None and dep_resolved[0] is not None:
                    ident = dep_resolved[0]
                    identities[dep.key] = ident
                    ancestors[dep.key] = frozenset(dep_resolved[1])
            if ident is None:
                poisoned = True
                break
            dep_idents.append(ident)
            dep_anc.add(ident)
            dep_anc.update(ancestors.get(dep.key, ()))
        if poisoned:
            identities[key] = None
            ancestors[key] = frozenset()
            continue
        op_tok = memo_ops.get(id(op))
        if op_tok is None:
            op_tok = _op_token(op, fingerprints)
            memo_ops[id(op)] = op_tok
        if op_tok is OPAQUE:
            identities[key] = None
            ancestors[key] = frozenset()
            continue
        out_pos = 0
        for i, out in enumerate(op.outputs):
            if out.key == key:
                out_pos = i
                break
        identities[key] = tokenize(
            op_tok, ("index", chunk.index), ("out", out_pos),
            ("deps", tuple(dep_idents)),
        )
        ancestors[key] = frozenset(dep_anc)
    return identities, ancestors
