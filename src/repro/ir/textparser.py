"""Parser for the textual IR dumps produced by :mod:`repro.ir.printer`.

``parse_ir(print_module(m))`` reconstructs a structurally identical module:
the printer/parser pair round-trips every construct, including checkpoint
metadata, loop bounds and atomic ranges. Used for golden tests, for saving
compiled artifacts to disk, and for hand-authoring IR in tests.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.function import Function, Param
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Checkpoint,
    CondCheckpoint,
    Jump,
    Load,
    Move,
    Opcode,
    Ret,
    Store,
    UnOp,
    UnaryOpcode,
)
from repro.ir.module import Module
from repro.ir.values import Const, MemorySpace, Register, Value, Variable, VarRef
from repro.ir.types import type_from_name

_MODULE_RE = re.compile(r"^module (\S+) \(entry @(\S+)\)$")
_GLOBAL_RE = re.compile(
    r"^global @(?P<name>[\w.]+):(?P<type>\w+)"
    r"(?:\[(?P<count>\d+)\])?"
    r"(?: \[(?P<flags>[\w, ]+)\])?"
    r"(?: = \{(?P<init>[^}]*)\})?$"
)
_FUNC_RE = re.compile(r"^func @(\S+)\((?P<params>[^)]*)\) -> (?P<ret>\w+) \{$")
_LOCAL_RE = re.compile(
    r"^  local (?P<bare>\w+): @(?P<name>[\w.]+):(?P<type>\w+)"
    r"(?:\[(?P<count>\d+)\])?"
    r"(?: \[(?P<flags>[\w, ]+)\])?"
    r"(?: = \{(?P<init>[^}]*)\})?$"
)
_MAXITER_RE = re.compile(r"^  maxiter \.(\S+) = (\d+)$")
_ATOMIC_RE = re.compile(r"^  atomic \.(\S+) \[(\d+):(\d+)\]$")
_LABEL_RE = re.compile(r"^\.(\S+):$")
_VALUE_RE = re.compile(r"^(%[\w.]+|-?\d+):(\w+)$|^&([\w.]+)$")

_CKPT_RE = re.compile(
    r"^checkpoint #(?P<id>\d+) save=\[(?P<save>[^\]]*)\] "
    r"restore=\[(?P<restore>[^\]]*)\] "
    r"vm_after=\[(?P<vm>[^\]]*)\] nvm_after=\[(?P<nvm>[^\]]*)\]"
    r"(?P<mandatory> mandatory)?$"
)
_CONDCKPT_RE = re.compile(
    r"^cond_checkpoint #(?P<id>\d+) every=(?P<every>\d+) "
    r"save=\[(?P<save>[^\]]*)\] restore=\[(?P<restore>[^\]]*)\] "
    r"vm_after=\[(?P<vm>[^\]]*)\] nvm_after=\[(?P<nvm>[^\]]*)\]$"
)

#: Prefix of every parse error: "IR text line N: ...".
_LOCATION = "IR text line"

_BINOPS = {op.value: op for op in Opcode}
_UNOPS = {op.value: op for op in UnaryOpcode}


def _parse_flags(raw: Optional[str]) -> Dict[str, bool]:
    flags = {f.strip() for f in (raw or "").split(",") if f.strip()}
    return {
        "is_const": "const" in flags,
        "is_ref": "ref" in flags,
        "pinned_nvm": "pinned_nvm" in flags,
        "volatile_input": "volatile_input" in flags,
    }


def _parse_init(raw: Optional[str]) -> Optional[List[int]]:
    if raw is None:
        return None
    raw = raw.strip()
    if not raw:
        return []
    return [int(v.strip()) for v in raw.split(",")]


def _parse_name_list(raw: str) -> Tuple[str, ...]:
    return tuple(n.strip() for n in raw.split(",") if n.strip())


class _IRTextParser:
    def __init__(self, text: str):
        self.lines = [line.rstrip() for line in text.splitlines()]
        self.pos = 0
        self.module: Optional[Module] = None
        #: mangled name -> Variable (globals and every function's locals)
        self.variables: Dict[str, Variable] = {}

    # ------------------------------------------------------------ helpers

    def error(self, message: str) -> IRError:
        return IRError(f"{_LOCATION} {self.pos + 1}: {message}")

    def _current(self) -> Optional[str]:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos]

    def _value(self, text: str) -> Value:
        text = text.strip()
        match = _VALUE_RE.match(text)
        if not match:
            raise self.error(f"cannot parse value {text!r}")
        if match.group(3) is not None:  # &var
            name = match.group(3)
            if name not in self.variables:
                raise self.error(f"unknown variable in &{name}")
            return VarRef(self.variables[name])
        body, type_name = match.group(1), match.group(2)
        type_ = type_from_name(type_name)
        if body.startswith("%"):
            return Register(body[1:], type_)
        return Const(int(body), type_)

    def _register(self, text: str) -> Register:
        value = self._value(text)
        if not isinstance(value, Register):
            raise self.error(f"expected a register, got {text!r}")
        return value

    def _variable(self, name: str) -> Variable:
        if name not in self.variables:
            raise self.error(f"unknown variable @{name}")
        return self.variables[name]

    def _split_args(self, raw: str) -> List[str]:
        return [a.strip() for a in raw.split(",") if a.strip()]

    # ------------------------------------------------------------ top level

    def parse(self) -> Module:
        """Parse the whole text. A malformed line that gets past the
        patterns — an unknown type name, a bad literal, an init list of
        the wrong length, an instruction after a terminator — fails in
        the IR constructors; that error is re-raised naming the line."""
        try:
            return self._parse_module()
        except ValueError as exc:
            raise self.error(str(exc)) from exc
        except IRError as exc:
            if str(exc).startswith(_LOCATION):
                raise
            raise self.error(str(exc)) from exc

    def _parse_module(self) -> Module:
        header = self._current()
        if header is None:
            raise self.error("empty IR text")
        match = _MODULE_RE.match(header)
        if not match:
            raise self.error(f"expected module header, got {header!r}")
        self.module = Module(match.group(1), entry=match.group(2))
        self.pos += 1

        while True:
            line = self._current()
            if line is None:
                break
            if line.startswith("global "):
                self._parse_global(line)
                self.pos += 1
            elif line.startswith("func "):
                self._parse_function(line)
            else:
                raise self.error(f"unexpected top-level line {line!r}")
        return self.module

    def _parse_global(self, line: str) -> None:
        match = _GLOBAL_RE.match(line)
        if not match:
            raise self.error(f"cannot parse global {line!r}")
        flags = _parse_flags(match.group("flags"))
        var = Variable(
            name=match.group("name"),
            type=type_from_name(match.group("type")),
            count=int(match.group("count") or 1),
            init=_parse_init(match.group("init")),
            **flags,
        )
        assert self.module is not None
        self.module.add_global(var)
        self.variables[var.name] = var

    # ------------------------------------------------------------ functions

    def _parse_function(self, header: str) -> None:
        match = _FUNC_RE.match(header)
        if not match:
            raise self.error(f"cannot parse function header {header!r}")
        name = match.group(1)
        params: List[Param] = []
        for raw in self._split_args(match.group("params")):
            is_ref = raw.startswith("&")
            pname, ptype = raw.lstrip("&").split(":")
            params.append(
                Param(name=pname, type=type_from_name(ptype), is_ref=is_ref)
            )
        ret = match.group("ret")
        func = Function(
            name,
            params,
            None if ret == "void" else type_from_name(ret),
        )
        assert self.module is not None
        self.module.add_function(func)
        self.pos += 1

        # Locals / metadata.
        while True:
            line = self._current()
            if line is None:
                raise self.error("unterminated function")
            local = _LOCAL_RE.match(line)
            if local:
                flags = _parse_flags(local.group("flags"))
                var = Variable(
                    name=local.group("name"),
                    type=type_from_name(local.group("type")),
                    count=int(local.group("count") or 1),
                    init=_parse_init(local.group("init")),
                    **flags,
                )
                func.add_variable(var, bare_name=local.group("bare"))
                self.variables[var.name] = var
                self.pos += 1
                continue
            maxiter = _MAXITER_RE.match(line)
            if maxiter:
                func.loop_maxiter[maxiter.group(1)] = int(maxiter.group(2))
                self.pos += 1
                continue
            atomic = _ATOMIC_RE.match(line)
            if atomic:
                func.atomic_ranges.append(
                    (atomic.group(1), int(atomic.group(2)), int(atomic.group(3)))
                )
                self.pos += 1
                continue
            break

        # Blocks.
        current = None
        while True:
            line = self._current()
            if line is None:
                raise self.error("unterminated function body")
            if line == "}":
                self.pos += 1
                return
            label = _LABEL_RE.match(line)
            if label:
                current = func.add_block(label.group(1))
                self.pos += 1
                continue
            if current is None:
                raise self.error(f"instruction outside a block: {line!r}")
            current.append(self._parse_instruction(line.strip()))
            self.pos += 1

    # ------------------------------------------------------------ instructions

    def _parse_instruction(self, text: str):
        self_error = self.error
        ckpt = _CKPT_RE.match(text)
        if ckpt:
            alloc = {n: MemorySpace.VM for n in _parse_name_list(ckpt.group("vm"))}
            alloc.update(
                {n: MemorySpace.NVM for n in _parse_name_list(ckpt.group("nvm"))}
            )
            return Checkpoint(
                ckpt_id=int(ckpt.group("id")),
                save_vars=_parse_name_list(ckpt.group("save")),
                restore_vars=_parse_name_list(ckpt.group("restore")),
                alloc_after=alloc,
                skippable=ckpt.group("mandatory") is None,
            )
        cond = _CONDCKPT_RE.match(text)
        if cond:
            alloc = {n: MemorySpace.VM for n in _parse_name_list(cond.group("vm"))}
            alloc.update(
                {n: MemorySpace.NVM for n in _parse_name_list(cond.group("nvm"))}
            )
            return CondCheckpoint(
                ckpt_id=int(cond.group("id")),
                every=int(cond.group("every")),
                save_vars=_parse_name_list(cond.group("save")),
                restore_vars=_parse_name_list(cond.group("restore")),
                alloc_after=alloc,
            )

        if text.startswith("jump ."):
            return Jump(text[len("jump ."):])
        if text.startswith("branch "):
            match = re.match(
                r"^branch (.+) \? \.(\S+) : \.(\S+)$", text
            )
            if not match:
                raise self_error(f"cannot parse branch {text!r}")
            return Branch(
                self._value(match.group(1)), match.group(2), match.group(3)
            )
        if text == "ret":
            return Ret(None)
        if text.startswith("ret "):
            return Ret(self._value(text[4:]))
        if text.startswith("store."):
            match = re.match(
                r"^store\.(\w+) @([\w.]+)(?:\[(.+)\])? = (.+)$", text
            )
            if not match:
                raise self_error(f"cannot parse store {text!r}")
            return Store(
                self._variable(match.group(2)),
                self._value(match.group(3)) if match.group(3) else None,
                self._value(match.group(4)),
                MemorySpace(match.group(1)),
            )
        if text.startswith("call @"):
            return self._parse_call(None, text)

        # Forms with a destination: "%d:t = ...".
        match = re.match(r"^(%[\w.]+:\w+) = (.+)$", text)
        if not match:
            raise self_error(f"cannot parse instruction {text!r}")
        dest = self._register(match.group(1))
        rhs = match.group(2)
        if rhs.startswith("move "):
            return Move(dest, self._value(rhs[5:]))
        if rhs.startswith("load."):
            lm = re.match(r"^load\.(\w+) @([\w.]+)(?:\[(.+)\])?$", rhs)
            if not lm:
                raise self_error(f"cannot parse load {rhs!r}")
            return Load(
                dest,
                self._variable(lm.group(2)),
                self._value(lm.group(3)) if lm.group(3) else None,
                MemorySpace(lm.group(1)),
            )
        if rhs.startswith("call @"):
            return self._parse_call(dest, rhs)
        parts = rhs.split(" ", 1)
        opname = parts[0]
        if opname in _UNOPS:
            return UnOp(_UNOPS[opname], dest, self._value(parts[1]))
        if opname in _BINOPS:
            operands = self._split_args(parts[1])
            if len(operands) != 2:
                raise self_error(f"binop needs two operands: {rhs!r}")
            return BinOp(
                _BINOPS[opname],
                dest,
                self._value(operands[0]),
                self._value(operands[1]),
            )
        raise self_error(f"unknown instruction {text!r}")

    def _parse_call(self, dest: Optional[Register], text: str) -> Call:
        match = re.match(r"^call @([\w.]+)\((.*)\)$", text)
        if not match:
            raise self.error(f"cannot parse call {text!r}")
        args = [self._value(a) for a in self._split_args(match.group(2))]
        return Call(dest, match.group(1), args)


def parse_ir(text: str) -> Module:
    """Parse a textual IR dump back into a :class:`Module`."""
    return _IRTextParser(text).parse()
