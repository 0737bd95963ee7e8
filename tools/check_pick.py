#!/usr/bin/env python3
"""Fail unless the chromatic tree's get() picks each child with a cmov.

    objdump -d -C --no-show-raw-insn BINARY | python3 tools/check_pick.py

Reads a disassembly on stdin and finds the out-of-line
TreeTemplate<BasicLlxScxChromatic<EbrManager>, ...>::get. Its descent
loop must hold a cmov: some backward conditional jump that spans at most
MAX_LOOP instructions must have a cmov between its target and itself.
The loop is five instructions (three loads, a compare and the cmov) plus
the leaf test (DESIGN.md §11). A cmov elsewhere does not count: without
-fno-split-paths GCC keeps one for the root step, which runs once, and
branches on the pick inside the loop. Exits 1 when get is missing or
its loop branches.
"""
import re
import sys

NAME = re.compile(r"llxscx::TreeTemplate<llxscx::BasicLlxScxChromatic<"
                  r"llxscx::EbrManager>, .*>::get\(unsigned long\) const")
MAX_LOOP = 16


def main() -> int:
    body = []  # (address, mnemonic, jump target or None)
    inside = found = False
    for line in sys.stdin:
        head = re.match(r"[0-9a-f]+ <(.*)>:$", line)
        if head:
            inside = NAME.fullmatch(head.group(1)) is not None
            found = found or inside
            continue
        ins = re.match(r" *([0-9a-f]+):\t(\S+) *(?:([0-9a-f]+) <)?", line)
        if inside and ins:
            target = ins.group(3) and int(ins.group(3), 16)
            body.append((int(ins.group(1), 16), ins.group(2), target))
    if not found:
        print("check_pick: the binary holds no out-of-line chromatic "
              "TreeTemplate::get")
        return 1
    index = {a: i for i, (a, _, _) in enumerate(body)}
    for i, (_, op, target) in enumerate(body):
        if op == "jmp" or not op.startswith("j") or target is None:
            continue
        start = index.get(target)
        if start is None or start > i or i - start >= MAX_LOOP:
            continue  # not a backward jump in get, or not a tight loop
        if any(o.startswith("cmov") for _, o, _ in body[start:i]):
            print("check_pick: chromatic TreeTemplate::get picks with a cmov")
            return 0
    print("check_pick: chromatic TreeTemplate::get holds no cmov in its "
          "descent loop: the pick branches")
    return 1


if __name__ == "__main__":
    sys.exit(main())
