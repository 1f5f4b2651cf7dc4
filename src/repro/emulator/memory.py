"""Concrete memory state: NVM image, VM image and current placement."""

from __future__ import annotations

from typing import Dict, List

from repro.errors import EmulationError, VMCapacityError
from repro.ir.module import Module
from repro.ir.values import MemorySpace

# Module names for the members: on CPython 3.11 a member lookup on the
# enum class costs several times the identity test it feeds, and every
# per-step access resolves its image here.
_VM = MemorySpace.VM
_NVM = MemorySpace.NVM


class MemoryState:
    """Values of every concrete (non-ref) variable in NVM and, for
    VM-resident variables, in VM.

    The NVM image always holds a slot for every variable (its home
    location: "each variable v has a single address in NVM", §III-A2). A
    variable currently allocated to VM additionally has a VM copy; loads and
    stores with ``space=VM`` hit the copy, and checkpoint saves write the
    copy back. Power failures clear the VM image.
    """

    def __init__(self, module: Module, vm_size: int):
        self.module = module
        self.vm_size = vm_size
        self.nvm: Dict[str, List[int]] = {}
        self.vm: Dict[str, List[int]] = {}
        self._sizes: Dict[str, int] = {}
        #: Bytes held by ``vm`` (kept by the methods that add or drop a
        #: resident).
        self._vm_bytes = 0
        for var in module.all_variables():
            if var.is_ref:
                continue
            values = list(var.init) if var.init is not None else [0] * var.count
            self.nvm[var.name] = values
            self._sizes[var.name] = var.size_bytes

    # -- raw access ------------------------------------------------------------

    def _image(self, name: str, space: MemorySpace) -> List[int]:
        if space is _VM:
            try:
                return self.vm[name]
            except KeyError:
                raise EmulationError(
                    f"VM access to @{name}, which is not VM-resident "
                    "(placement bug in a transformation pass)"
                ) from None
        if space is _NVM:
            try:
                return self.nvm[name]
            except KeyError:
                raise EmulationError(f"unknown variable @{name}") from None
        raise EmulationError(
            f"access to @{name} with unresolved space AUTO at run time"
        )

    def read(self, name: str, index: int, space: MemorySpace) -> int:
        image = self._image(name, space)
        if not 0 <= index < len(image):
            raise EmulationError(
                f"out-of-bounds read @{name}[{index}] (size {len(image)})"
            )
        return image[index]

    def write(self, name: str, index: int, value: int, space: MemorySpace) -> None:
        image = self._image(name, space)
        if not 0 <= index < len(image):
            raise EmulationError(
                f"out-of-bounds write @{name}[{index}] (size {len(image)})"
            )
        image[index] = value

    # -- placement / checkpoint support ---------------------------------------

    def vm_bytes_used(self) -> int:
        return self._vm_bytes

    def load_into_vm(self, name: str) -> int:
        """Copy a variable's NVM values into VM; returns its size in bytes.

        Raises :class:`VMCapacityError` if the copy would overflow VM."""
        if name not in self.nvm:
            raise EmulationError(f"unknown variable @{name}")
        if name not in self.vm:
            size = self._sizes[name]
            if self._vm_bytes + size > self.vm_size:
                raise VMCapacityError(
                    f"loading @{name} ({size} B) exceeds VM size "
                    f"{self.vm_size} B (used {self._vm_bytes} B)"
                )
            self._vm_bytes += size
        self.vm[name] = list(self.nvm[name])
        return self._sizes[name]

    def save_to_nvm(self, name: str) -> int:
        """Write a VM-resident variable back to its NVM home; returns size."""
        if name not in self.vm:
            raise EmulationError(
                f"checkpoint save of @{name}, which is not VM-resident"
            )
        self.nvm[name] = list(self.vm[name])
        return self._sizes[name]

    def drop_from_vm(self, name: str) -> None:
        if self.vm.pop(name, None) is not None:
            self._vm_bytes -= self._sizes[name]

    def clear_vm(self) -> None:
        """Power failure: all volatile contents are lost."""
        self.vm.clear()
        self._vm_bytes = 0

    def vm_residents(self) -> List[str]:
        return sorted(self.vm)

    def snapshot_images(self) -> Dict[str, Dict[str, List[int]]]:
        """Detached deep copies of both images, for snapshot/fork
        emulation. The returned dict never aliases live state."""
        return {
            "nvm": {name: list(values) for name, values in self.nvm.items()},
            "vm": {name: list(values) for name, values in self.vm.items()},
        }

    def restore_images(self, images: Dict[str, Dict[str, List[int]]]) -> None:
        """Refill both images with deep copies of a prior
        :meth:`snapshot_images` capture; the snapshot stays pristine for
        reuse by later forks. The two dicts are refilled in place, never
        rebound: compiled segments index them directly
        (:mod:`repro.emulator.compiled`)."""
        for live, kind in ((self.nvm, "nvm"), (self.vm, "vm")):
            saved = images[kind]
            live.clear()
            live.update((name, list(values)) for name, values in saved.items())
        self._vm_bytes = sum(self._sizes[name] for name in self.vm)

    def size_of(self, name: str) -> int:
        return self._sizes[name]

    def read_variable(self, name: str) -> List[int]:
        """Current values of a variable (VM copy if present, else NVM)."""
        if name in self.vm:
            return list(self.vm[name])
        return list(self.nvm[name])
