"""Named trainable tensors as views of one flat buffer per group, with
Adam state."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError

GROUPS = ("discriminator", "generator")
ADAM_CHUNK = 1 << 15    # flat elements per pass of adam_step
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ParameterStore:
    """All trainable tensors, partitioned into discriminator/generator groups.

    Each group keeps its values in one flat buffer of a single dtype, and
    every named parameter is a view into it (FSDP's ``FlatParameter``
    layout).  Adam's two moments, a (2, size) array per group made with
    ``np.zeros`` on first use, or read on first use where a checkpoint load
    deferred them (``defer_moments``), and one step count per group live
    alongside the values, so a checkpoint can resume optimization exactly.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._slots: dict[str, tuple[str, slice, tuple]] = {}  # name -> (group, span, shape)
        self.values = {g: np.empty(0, self.dtype) for g in GROUPS}
        self._moments: dict[str, np.ndarray] = {}
        self._reads: dict[str, object] = {}    # group -> deferred read of its moments
        self.steps = dict.fromkeys(GROUPS, 0)

    def extend(self, group: str, named_values: dict):
        """Register parameters of one group with one copy into its buffer."""
        if group not in GROUPS:
            raise ContractError(f"unknown parameter group {group!r}")
        if group in self._moments or group in self._reads:
            raise ContractError(f"group {group!r} already has Adam state")
        arrays = {n: np.asarray(v, dtype=self.dtype) for n, v in named_values.items()}
        twice = [n for n in arrays if n in self._slots]
        if twice:
            raise ContractError(f"parameter {twice[0]!r} registered twice")
        offset = self.values[group].size
        for name, arr in arrays.items():
            self._slots[name] = (group, slice(offset, offset + arr.size), arr.shape)
            offset += arr.size
        self.values[group] = np.concatenate(
            [self.values[group], *(arr.reshape(-1) for arr in arrays.values())])

    def add(self, name: str, value, group: str):
        self.extend(group, {name: value})

    def view(self, name: str, buffers=None) -> np.ndarray:
        """The parameter's view into its group's buffer in `buffers` (the
        values by default), whose last axis is the group's flat axis."""
        flat = (self.values if buffers is None else buffers)[self.group_of(name)]
        _, span, shape = self._slots[name]
        return flat[..., span].reshape(flat.shape[:-1] + shape)

    __getitem__ = view

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def set(self, name: str, value, buffers=None):
        """Copy `value` into the parameter's view (as `view` picks it)."""
        view = self.view(name, buffers)
        arr = np.asarray(value, dtype=self.dtype)
        if arr.shape != view.shape:
            raise ContractError(f"shape mismatch for {name!r}: have {view.shape}, "
                                f"got {arr.shape}")
        view[...] = arr

    def group_of(self, name: str) -> str:
        if name not in self._slots:
            raise ContractError(f"unknown parameter {name!r}")
        return self._slots[name][0]

    def names(self, group: str | None = None) -> list[str]:
        return [n for n, (g, _, _) in self._slots.items() if group in (None, g)]

    def moments(self, group: str) -> np.ndarray:
        """The group's (2, size) Adam moments; no parameter joins it after.
        Deferred moments are read here, on first use; a failed read stays
        pending, so the next call raises again rather than giving zeros."""
        if group in self._reads:
            moments = np.empty((2, self.values[group].size), self.dtype)
            self._reads[group](moments)
            del self._reads[group]
            self._moments[group] = moments
            if not self._reads:
                self._close()
        elif group not in self._moments:
            # np.zeros, unlike zeros_like, leaves pages unwritten until Adam's first step.
            self._moments[group] = np.zeros((2, self.values[group].size), self.dtype)
        return self._moments[group]

    def defer_moments(self, reads: dict, handle):
        """Replace every group's moments, and any earlier deferral, by a read
        on first use: ``reads[group](out)`` fills a (2, size) array.  The
        reads use the open file `handle`, closed once all are done, or with
        the store."""
        if self._reads:
            self._close()
        self._moments.clear()
        self._reads = {g: reads[g] for g in GROUPS}
        self._close = weakref.finalize(self, handle.close)

    def adam_state(self, name: str):
        group = self.group_of(name)
        m, v = self.view(name, {group: self.moments(group)})
        return m, v, self.steps[group]

    def set_adam_state(self, name: str, m, v, step: int):
        """Copy one parameter's moments in; `step` becomes its group's."""
        group = self.group_of(name)
        for row, value in zip(self.moments(group), (m, v)):
            self.set(name, value, {group: row})
        self.steps[group] = int(step)


def adam_step(params: ParameterStore, group: str, grad: np.ndarray, lr: float):
    """One bias-corrected Adam update of a group from its flat gradient.

    Values and moments are updated in place, in the binary-op order of
    m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g^2,
    value -= lr m_hat / (sqrt(v_hat) + eps), with the constants beta1 =
    ADAM_BETA1 (0.9), beta2 = ADAM_BETA2 (0.999) and eps = ADAM_EPS (1e-8),
    so the bytes equal the out-of-place formula's.  The update runs over
    chunks of ADAM_CHUNK flat elements with two chunk-sized temporaries, so
    each pass reads cache rather than the whole table.  The gradient must
    have the group's size and the store's dtype: a wider one would round
    differently, a narrower one would lose precision.
    """
    values = params.values[group]
    if grad.dtype != params.dtype:
        raise ContractError(f"gradient of group {group!r} is {grad.dtype}, "
                            f"the store is {params.dtype}")
    if grad.shape != values.shape:
        raise ContractError(f"gradient of group {group!r} has shape {grad.shape}, "
                            f"the group {values.shape}")
    m, v = params.moments(group)
    step = params.steps[group] = params.steps[group] + 1
    buffers = np.empty((2, min(ADAM_CHUNK, values.size)), params.dtype)
    for lo in range(0, values.size, ADAM_CHUNK):
        value, m_c, v_c, g = (x[lo:lo + ADAM_CHUNK] for x in (values, m, v, grad))
        tmp, update = buffers[:, :g.size]
        m_c *= ADAM_BETA1
        m_c += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        v_c *= ADAM_BETA2
        v_c += np.multiply(np.multiply(g, g, out=tmp), 1.0 - ADAM_BETA2, out=tmp)
        np.divide(m_c, 1.0 - ADAM_BETA1 ** step, out=update)     # m_hat
        update *= lr
        np.divide(v_c, 1.0 - ADAM_BETA2 ** step, out=tmp)        # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update /= tmp
        value -= update


@dataclass
class GradCheckResult:
    worst: float
    worst_param: str
    per_param: dict[str, float]


def finite_diff_check(loss_builder, params: ParameterStore, epsilons,
                      names: list[str] | None = None) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    loss_builder(params) must deterministically rebuild the loss tape from
    the store's current values and return (tape, root).  For each checked
    scalar component the relative error is |a-n| / max(1e-8, |a|+|n|).  A
    parameter's error is its worst component at the probe step that serves
    it best: the minimum over `epsilons` of the maximum over components.
    The worst parameter is reported.  Detached quantities inside the loss
    (e.g. frozen sampling weights) must be fixed by the builder so analytic
    and numeric sides differentiate the same function.
    """
    epsilons = tuple(epsilons)
    if not epsilons or min(epsilons) <= 0:
        raise ContractError("finite_diff_check needs positive probe steps")
    if params.dtype != np.float64:
        raise ContractError("finite_diff_check requires a double-precision store")
    tape, root = loss_builder(params)
    analytic = tape.backward(root)

    def loss_value():
        _, node = loss_builder(params)
        return float(node.value)

    def worst_component(name, epsilon):
        value = params[name]
        gflat = analytic[name].reshape(-1)
        err = 0.0
        for i in range(value.size):
            orig = value.flat[i]
            value.flat[i] = orig + epsilon
            up = loss_value()
            value.flat[i] = orig - epsilon
            down = loss_value()
            value.flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss probing parameter {name!r}")
            numeric = (up - down) / (2.0 * epsilon)
            a = float(gflat[i])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            err = max(err, rel)
        return err

    checked = params.names() if names is None else list(names)
    per_param = {name: min(worst_component(name, eps) for eps in epsilons)
                 for name in checked}
    worst_param = max(per_param, key=per_param.get, default="")
    return GradCheckResult(per_param.get(worst_param, 0.0), worst_param, per_param)
