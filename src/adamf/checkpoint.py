"""Binary checkpoint serialization.

Layout (all integers little-endian u32, payloads little-endian float32):

    magic "AMF1" | version | n_params  | record*  | n_state | record*

where each record is

    name_len | name (UTF-8) | rank | dims (u32 * rank) | payload (f4 * prod)

The first section holds parameter values; the parallel second section holds
Adam state under the names ``<param>.adam_m``, ``<param>.adam_v`` and
``<param>.step`` (step stored as a rank-0 float payload).  Payloads are
float32 regardless of the compute precision in use.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ContractError, DataError
from .ioutil import atomic_open
from .params import ParameterStore

MAGIC = b"AMF1"
VERSION = 1


def _write_record(fh, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DataError("truncated checkpoint file")
    return data


def _read_record(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    name = _read_exact(fh, name_len).decode("utf-8")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    dims = [struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank)]
    count = 1
    for dim in dims:
        count *= dim
    payload = np.frombuffer(_read_exact(fh, 4 * count), dtype="<f4")
    return name, payload.reshape(dims)


def save_checkpoint(store: ParameterStore, path: str):
    """Write atomically: a temp file in the same directory, then rename; a
    failed write leaves any previous file at `path` untouched."""
    names = store.names()
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            _write_record(fh, name, store[name])
        fh.write(struct.pack("<I", 3 * len(names)))
        for name in names:
            m, v, step = store.adam_state(name)
            _write_record(fh, f"{name}.adam_m", m)
            _write_record(fh, f"{name}.adam_v", v)
            _write_record(fh, f"{name}.step", np.asarray(float(step)))


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Raw (values, state) maps, without interpreting against a store."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise DataError(f"{path}: bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        values = dict(_read_record(fh) for _ in range(n_params))
        (n_state,) = struct.unpack("<I", _read_exact(fh, 4))
        state = dict(_read_record(fh) for _ in range(n_state))
    return values, state


def load_checkpoint(store: ParameterStore, path: str):
    """Load values and Adam state into an already-shaped store.

    Every tensor must exist in the store with a matching shape (Adam moments
    too, step counts rank 0).  A tensor's Adam state is all three of its
    records or none, the tensors of a group carry it all with one step or
    none, and every state record must belong to a tensor in the file.
    Violations are contract errors naming the record or the group, raised
    before the store changes.
    """
    values, state = read_checkpoint(path)
    records = {**state, **values}
    for name in values:
        if name not in store:
            raise ContractError(f"checkpoint tensor {name!r} not in model")
        shape = store[name].shape
        keys = (f"{name}.adam_m", f"{name}.adam_v", f"{name}.step")
        for key, want in zip((name, *keys), (shape, shape, shape, ())):
            if key in records and records[key].shape != want:
                raise ContractError(f"checkpoint tensor {key!r} has shape "
                                    f"{records[key].shape}, model expects {want}")
        absent = [key for key in keys if key not in state]
        if 0 < len(absent) < 3:
            raise ContractError(f"checkpoint Adam state of {name!r} lacks {absent[0]!r}")
    owned = {f"{n}.{k}" for n in values for k in ("adam_m", "adam_v", "step")}
    stray = [key for key in state if key not in owned]
    if stray:
        raise ContractError(f"checkpoint state record {stray[0]!r} belongs to no "
                            f"tensor in the file")
    missing = [n for n in store.names() if n not in values]
    if missing:
        raise ContractError(f"checkpoint missing tensors: {missing}")
    for group in store.steps:
        steps = {float(state[f"{n}.step"]) if f"{n}.step" in state else None
                 for n in store.names(group)}
        if len(steps) > 1:
            raise ContractError(f"checkpoint tensors of group {group!r} do not all "
                                f"carry Adam state with one step")
    for name, arr in values.items():
        store.set(name, arr)
        if f"{name}.step" in state:
            m, v, step = (state[f"{name}.{k}"] for k in ("adam_m", "adam_v", "step"))
            store.set_adam_state(name, m, v, int(step))
