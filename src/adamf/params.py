"""Named trainable tensors with group tags and Adam state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError

GROUPS = ("discriminator", "generator")
ADAM_CHUNK = 1 << 15    # flat elements per pass of adam_step


class ParameterStore:
    """All trainable tensors, partitioned into discriminator/generator groups.

    Values are numpy arrays of a single dtype.  Adam first/second moments and
    per-parameter step counts live alongside the values so a checkpoint can
    resume optimization exactly.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._values: dict[str, np.ndarray] = {}
        self._groups: dict[str, str] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._steps: dict[str, int] = {}

    def add(self, name: str, value, group: str):
        if name in self._values:
            raise ContractError(f"parameter {name!r} registered twice")
        if group not in GROUPS:
            raise ContractError(f"unknown parameter group {group!r}")
        arr = np.array(value, dtype=self.dtype, order="C")
        self._values[name] = arr
        self._groups[name] = group
        # np.zeros, unlike zeros_like, leaves pages unwritten until Adam's first step.
        self._adam_m[name] = np.zeros(arr.shape, arr.dtype)
        self._adam_v[name] = np.zeros(arr.shape, arr.dtype)
        self._steps[name] = 0

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._values[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def set(self, name: str, value):
        arr = np.array(value, dtype=self.dtype, order="C")  # owned: Adam updates in place
        if arr.shape != self._values[name].shape:
            raise ContractError(
                f"shape mismatch for {name!r}: have {self._values[name].shape}, "
                f"got {arr.shape}")
        self._values[name] = arr

    def group_of(self, name: str) -> str:
        try:
            return self._groups[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def names(self, group: str | None = None) -> list[str]:
        if group is None:
            return list(self._values)
        return [n for n, g in self._groups.items() if g == group]

    def adam_state(self, name: str):
        return self._adam_m[name], self._adam_v[name], self._steps[name]

    def set_adam_state(self, name: str, m, v, step: int):
        self._adam_m[name] = np.array(m, dtype=self.dtype, order="C")
        self._adam_v[name] = np.array(v, dtype=self.dtype, order="C")
        self._steps[name] = int(step)

    def snapshot(self, group: str | None = None) -> dict[str, np.ndarray]:
        """Copies of current values, for bitwise comparisons in tests."""
        return {n: self._values[n].copy() for n in self.names(group)}


def adam_step(params: ParameterStore, grads: dict[str, np.ndarray], group: str,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam update restricted to the named group.

    Parameters outside the group are untouched even if grads carries entries
    for them (a full-store gradient map is the common case).

    Values and moments are updated in place, in the binary-op order of
    m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g^2,
    value -= lr m_hat / (sqrt(v_hat) + eps),
    so the bytes equal the out-of-place formula's.  The update runs over
    chunks of ADAM_CHUNK flat elements with two chunk-sized temporaries, so
    each pass reads cache rather than the whole table.  A gradient must have
    its parameter's shape, since the flat chunks would apply one of another
    layout silently, and the store's dtype: a wider one would round
    differently, a narrower one would lose precision.
    """
    for name, g in grads.items():
        if name not in params:
            raise ContractError(f"gradient for unknown parameter {name!r}")
        if g.dtype != params.dtype:
            raise ContractError(f"gradient for {name!r} is {g.dtype}, "
                                f"the store is {params.dtype}")
        if g.shape != params[name].shape:
            raise ContractError(f"gradient for {name!r} has shape {g.shape}, "
                                f"the parameter {params[name].shape}")
    for name in params.names(group):
        if name not in grads:
            continue
        m, v, step = params.adam_state(name)
        step += 1
        flat = [x.reshape(-1) for x in (params[name], m, v, grads[name])]
        buffers = np.empty((2, min(ADAM_CHUNK, m.size)), m.dtype)
        for lo in range(0, m.size, ADAM_CHUNK):
            value, m_c, v_c, g = (x[lo:lo + ADAM_CHUNK] for x in flat)
            tmp, update = buffers[:, :g.size]
            m_c *= beta1
            m_c += np.multiply(g, 1.0 - beta1, out=tmp)
            v_c *= beta2
            v_c += np.multiply(np.multiply(g, g, out=tmp), 1.0 - beta2, out=tmp)
            np.divide(m_c, 1.0 - beta1 ** step, out=update)     # m_hat
            update *= lr
            np.divide(v_c, 1.0 - beta2 ** step, out=tmp)        # v_hat
            np.sqrt(tmp, out=tmp)
            tmp += eps
            update /= tmp
            value -= update
        params._steps[name] = step


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
