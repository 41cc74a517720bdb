"""Binary checkpoint serialization: one record per parameter group.

    magic "AMF2" | header length (u64) | header (UTF-8 JSON) | payload

The header holds the payload dtype, the store's own ("<f4" or "<f8"), and
for each group in GROUPS order its Adam step and its parameters'
[name, shape] in buffer order.  The payload is, for each group, its flat
values, then Adam m, then Adam v, little-endian: the store, laid out as it
is, so a double-precision store round-trips bit for bit.
"""

from __future__ import annotations

import functools
import json
import os
import struct

import numpy as np

from .errors import ContractError, DataError
from .ioutil import atomic_open
from .params import GROUPS, ParameterStore, block_rows

MAGIC = b"AMF2"
DTYPES = ("<f4", "<f8")


def _layout(store: ParameterStore, group: str) -> list:
    return [[name, list(store[name].shape)] for name in store.names(group)]


def save_checkpoint(store: ParameterStore, path: str):
    """Write atomically: a temp file in the same directory, then rename; a
    failed write leaves any previous file at `path` untouched."""
    dtype = store.dtype.newbyteorder("<")
    header = json.dumps({"dtype": dtype.str, "groups": {
        g: {"step": store.steps[g], "params": _layout(store, g)} for g in GROUPS}}
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header)) + header)
        for group in GROUPS:
            fh.write(store.values[group].astype(dtype, copy=False))
            fh.write(store.moments(group).astype(dtype, copy=False))


def _read_header(fh, path: str, size: int) -> dict:
    prefix = fh.read(12)
    if prefix[:4] == b"AMF1":
        raise DataError(f"{path}: AMF1 checkpoint, a format this release no longer reads")
    if prefix[:4] != MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    if len(prefix) < 12:
        raise DataError(f"{path}: truncated checkpoint file")
    (length,) = struct.unpack("<Q", prefix[4:])
    if length > size - 12:
        raise DataError(f"{path}: checkpoint header of {length} bytes overruns the file")
    try:
        header = json.loads(fh.read(length))
        if header["dtype"] in DTYPES and all(
                type(spec["step"]) is int and spec["step"] >= 0 and all(
                    type(name) is str and all(type(d) is int and d >= 0 for d in shape)
                    for name, shape in spec["params"])
                for spec in (header["groups"][g] for g in GROUPS)):
            return header
    except (ValueError, KeyError, TypeError):
        pass
    raise DataError(f"{path}: malformed checkpoint header")


def _check_layout(store: ParameterStore, groups: dict):
    """Refuse a file whose groups do not lay out the store's, naming the
    first unknown, missing, misplaced or wrongly shaped tensor."""
    listed = [name for g in GROUPS for name, _ in groups[g]["params"]]
    unknown = [name for name in listed if name not in store]
    if unknown:
        raise ContractError(f"checkpoint tensor {unknown[0]!r} not in model")
    missing = [name for name in store.names() if name not in listed]
    if missing:
        raise ContractError(f"checkpoint missing tensors: {missing}")
    for group in GROUPS:
        want = _layout(store, group)
        for i, (name, shape) in enumerate(groups[group]["params"]):
            if i >= len(want) or want[i][0] != name:
                raise ContractError(f"checkpoint tensor {name!r} is at place {i} of group "
                                    f"{group!r}, not where the model keeps it")
            if want[i][1] != shape:
                raise ContractError(f"checkpoint tensor {name!r} has shape {shape}, "
                                    f"model expects {want[i][1]}")


def _read_into(fh, path: str, offset: int, dtype: np.dtype, flats):
    """Fill each flat array of `flats` in turn from the file's payload at
    byte `offset`, ``block_rows(1, itemsize)`` elements of the file's dtype
    at a time, widening each chunk into place."""
    fh.seek(offset)
    chunk = np.empty(block_rows(1, dtype.itemsize), dtype)
    for flat in flats:
        for lo in range(0, flat.size, chunk.size):
            part = chunk[:flat.size - lo]
            if fh.readinto(part) != part.nbytes:
                raise DataError(f"{path}: truncated checkpoint file")
            flat[lo:lo + part.size] = part


def load_checkpoint(store: ParameterStore, path: str):
    """Load values and steps into an already-shaped store, and the Adam
    moments on first use.

    Every check runs before the store changes: the file's dtype must cast
    safely to the store's (widening is allowed, narrowing is a contract
    error), each group must list the store's tensors in order and shape,
    and the file must end where its payload does.  Each group's values are
    then read straight into its buffer, a BLOCK_BYTES block of the file at
    a time.  Its moments are not read: the store reads them through this
    load's open handle when they are first asked for
    (``ParameterStore.defer_moments``), so evaluation never makes them
    resident.  The handle keeps the loaded file, so a later save over `path`
    does not change them; a file cut short since raises `DataError` then.
    """
    fh = open(path, "rb")
    try:
        size = os.fstat(fh.fileno()).st_size
        header = _read_header(fh, path, size)
        dtype = np.dtype(header["dtype"])
        if not np.can_cast(dtype, store.dtype):
            raise ContractError(f"{path}: checkpoint holds {dtype.name} values, which "
                                f"the {store.dtype.name} model would narrow")
        _check_layout(store, header["groups"])
        offset = fh.tell()
        end = offset + 3 * sum(store.values[g].size for g in GROUPS) * dtype.itemsize
        if size != end:
            raise DataError(f"{path}: checkpoint file is {size} bytes, its header "
                            f"describes {end}")
        reads = {}
        for group in GROUPS:
            nbytes = store.values[group].size * dtype.itemsize
            _read_into(fh, path, offset, dtype, [store.values[group]])
            reads[group] = functools.partial(_read_into, fh, path, offset + nbytes, dtype)
            store.steps[group] = header["groups"][group]["step"]
            offset += 3 * nbytes
    except BaseException:
        fh.close()
        raise
    store.defer_moments(reads, fh)
