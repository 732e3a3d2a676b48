"""Basic blocks and the control-flow graph over a decoded guest image.

Direct branch/jump targets (the assembler resolves them to absolute word
addresses) become edges; indirect jumps (``JR``/``IRET``) are marked rather
than guessed — the dataflow stage may resolve some of them later.  Targets
outside the image are recorded as *escaping* edges: a jump into data or
unmapped space is something the lint passes want to know about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.decoder import DecodedInstruction
from repro.hw.isa import Op

#: Sentinel node for control flow leaving the loaded image.
EXIT_NODE = "exit"
#: Sentinel node for jumps whose target is not inside the image.
ESCAPE_NODE = "escape"

#: A CFG node: a block leader, or one of the two sentinels.
Node = int | str


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int                              # absolute pc of the first instruction
    instructions: list[DecodedInstruction] = field(default_factory=list)

    @property
    def end(self) -> int:
        """Absolute pc of the last instruction (inclusive)."""
        return self.start + len(self.instructions) - 1

    @property
    def terminator(self) -> DecodedInstruction:
        return self.instructions[-1]

    def __iter__(self) -> Iterator[DecodedInstruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class ControlFlowGraph:
    """CFG over basic blocks as a plain adjacency dict.

    Nodes are block start addresses (plus the ``exit``/``escape``
    sentinels).  ``successors[node]`` maps each successor to its edge
    kind — ``fallthrough``, ``branch``, ``jump``, ``halt``, ``fault`` or
    ``escape`` — in the order the edges were added; a repeated edge keeps
    its first position and takes its last kind.  The graph is built once
    in ``__init__`` and never changes afterwards, so the reachable block
    set and the pc → block map are computed there once.  Nothing here is
    quadratic in the image, which comes from the guest: no per-block
    descendant sets are kept.
    """

    def __init__(self, decoded: list[DecodedInstruction], base_address: int) -> None:
        self.base_address = base_address
        self.decoded = decoded
        self.blocks: dict[int, BasicBlock] = {}
        self.successors: dict[Node, dict[Node, str]] = {}
        self._by_pc = {d.pc: d for d in decoded}
        self._leader_of: dict[int, int] = {}
        self._build()
        self._reachable: frozenset[int] = (
            self.descendants(self.entry) | {self.entry}
            if self.entry in self.blocks else frozenset())

    # ------------------------------------------------------------------

    @property
    def entry(self) -> int:
        return self.base_address

    @property
    def code_range(self) -> range:
        return range(self.base_address, self.base_address + len(self.decoded))

    def instruction_at(self, pc: int) -> DecodedInstruction | None:
        return self._by_pc.get(pc)

    def block_of(self, pc: int) -> BasicBlock | None:
        """The block containing ``pc`` (any instruction, not just leaders)."""
        leader = self._leader_of.get(pc)
        return None if leader is None else self.blocks[leader]

    def descendants(self, node: Node) -> frozenset[int]:
        """Block leaders reachable from ``node`` along one or more edges."""
        seen: set[int] = set()
        stack = [node]
        while stack:
            for successor in self.successors.get(stack.pop(), ()):
                if isinstance(successor, int) and successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return frozenset(seen)

    def reachable_blocks(self) -> frozenset[int]:
        """Block leaders reachable from the entry along static edges."""
        return self._reachable

    def unreachable_blocks(self) -> set[int]:
        return set(self.blocks) - self._reachable

    def is_reachable(self, pc: int) -> bool:
        return self._leader_of.get(pc) in self._reachable

    def indirect_jumps(self) -> list[DecodedInstruction]:
        """Every ``JR``/``IRET`` in the image, reachable or not."""
        return [d for d in self.decoded if d.is_indirect]

    def escaping_jumps(self) -> list[DecodedInstruction]:
        """Direct transfers whose target is outside the loaded image."""
        escapes = []
        for decoded in self.decoded:
            for target in decoded.static_targets():
                if target not in self._by_pc:
                    escapes.append(decoded)
                    break
        return escapes

    def has_reachable_exit(self) -> bool:
        """Can the program reach a ``HALT`` (or park in ``WFI``)?"""
        return any(decoded.op in (Op.HALT, Op.WFI)
                   for leader in self._reachable
                   for decoded in self.blocks[leader])

    def blocks_in_cycles(self) -> set[int]:
        """Leaders of blocks that sit on some CFG cycle (loop bodies): the
        blocks that reach themselves.

        Found as Tarjan's strongly connected components with more than one
        block or a self-edge, in time and memory linear in the graph."""
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []
        on_stack: set[int] = set()
        in_cycle: set[int] = set()
        for root in self.blocks:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self.successors[root]))]
            while work:
                node, successors = work[-1]
                for successor in successors:
                    if not isinstance(successor, int):
                        continue
                    if successor not in index:
                        index[successor] = low[successor] = len(index)
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(self.successors[successor])))
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], index[successor])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        component = [stack.pop()]
                        while component[-1] != node:
                            component.append(stack.pop())
                        on_stack.difference_update(component)
                        if len(component) > 1 or node in self.successors[node]:
                            in_cycle.update(component)
        return in_cycle

    # ------------------------------------------------------------------

    def _build(self) -> None:
        if not self.decoded:
            return
        leaders = self._find_leaders()
        current: BasicBlock | None = None
        for decoded in self.decoded:
            if decoded.pc in leaders:
                current = BasicBlock(start=decoded.pc)
                self.blocks[decoded.pc] = current
            assert current is not None
            current.instructions.append(decoded)
            self._leader_of[decoded.pc] = current.start
            if decoded.is_terminator():
                current = None
        for node in (*self.blocks, EXIT_NODE, ESCAPE_NODE):
            self.successors[node] = {}
        for leader, block in self.blocks.items():
            self._wire_block(self.successors[leader], block)

    def _find_leaders(self) -> set[int]:
        leaders = {self.decoded[0].pc}
        for decoded in self.decoded:
            if decoded.is_terminator():
                follower = decoded.pc + 1
                if follower in self._by_pc:
                    leaders.add(follower)
            for target in decoded.static_targets():
                if target != decoded.pc + 1 and target in self._by_pc:
                    leaders.add(target)
        return leaders

    def _wire_block(self, edges: dict[Node, str], block: BasicBlock) -> None:
        terminator = block.terminator
        if terminator.instruction is None:
            edges[EXIT_NODE] = "fault"
            return
        op = terminator.instruction.op
        if op is Op.HALT:
            edges[EXIT_NODE] = "halt"
            return
        if terminator.is_indirect:
            # No static successor; dataflow may resolve it later.
            return
        for target in terminator.static_targets():
            if target in self._by_pc:
                kind = ("fallthrough" if target == terminator.pc + 1
                        else "jump" if op in (Op.JMP, Op.JAL) else "branch")
                edges[self._leader_of[target]] = kind
            else:
                edges[ESCAPE_NODE] = "escape"


def build_cfg(decoded: list[DecodedInstruction],
              base_address: int = 0) -> ControlFlowGraph:
    """Build the CFG for a decoded instruction stream."""
    return ControlFlowGraph(decoded, base_address)
