#!/usr/bin/env python3
"""Regenerate the committed inputs under perfbench/data from the package.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/regen_data.py

Writes the lemma certificates the CLI and the lemma_search workload read,
one deliberately broken certificate, the presentation file that states the
omega-unique hypothesis, the assignment files for check-algebra and eval,
and perfbench/fingerprints.json. Run it only when an input format changes on
purpose: every later run compares its inputs against these fingerprints.
"""

from __future__ import annotations

import json
from pathlib import Path

from opwords.certificate import decode, encode
from opwords.dsl import print_word
from opwords.errors import ReplayError
from opwords.fixtures import lemma_fixtures
from opwords.present import (GROUP_ALPHABET, builtin_group, cyclic_group,
                             symmetric_group_3)

import workloads
from worker import CANARY_SECONDS, CANARY_SEED, input_fingerprint

DATA = Path(__file__).resolve().parent / "data"

TAMPERED = ("omega-involution", 3)   # lemma, step whose direction is flipped


def group_assignment_text(tables, inverse=None) -> str:
    n = tables.size
    inv = inverse if inverse is not None else tables.inverse
    lines = [f"carrier {n}", "gen mu"]
    lines += [f"{a} {b} -> {tables.mult[a][b]}"
              for a in range(n) for b in range(n)]
    lines += ["gen eta", f"-> {tables.unit}", "gen omega"]
    lines += [f"{a} -> {inv[a]}" for a in range(n)]
    return "\n".join(lines) + "\n"


def presentation_text(alphabet, relations) -> str:
    lines = [f"generator {g.name} {g.src} {g.tgt}" for g in alphabet]
    lines += [f"relation {print_word(l)} == {print_word(r)}"
              for l, r in relations]
    return "\n".join(lines) + "\n"


def main():
    DATA.mkdir(exist_ok=True)
    fixtures = {f.name: f for f in lemma_fixtures()}
    hyp = fixtures["omega-unique"]
    om2 = next(g for _, g, _ in hyp.certificate.start.letters)
    (DATA / "omega-unique.pres").write_text(presentation_text(
        GROUP_ALPHABET.extend(om2), hyp.context.relations))
    for name in workloads.LEMMAS:
        (DATA / f"{name}.cert").write_text(encode(fixtures[name].certificate))

    name, step = TAMPERED
    lines = encode(fixtures[name].certificate).splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith(f"step {step}:"))
    old, new = (("dir=fwd", "dir=bwd") if "dir=fwd" in lines[idx]
                else ("dir=bwd", "dir=fwd"))
    lines[idx] = lines[idx].replace(old, new)
    tampered = "\n".join(lines) + "\n"
    cert = decode(tampered, builtin_group().alphabet)
    try:
        cert.replay(builtin_group().context())
    except ReplayError:
        pass
    else:
        raise SystemExit("tampered certificate still replays")
    (DATA / f"{name}-tampered.cert").write_text(tampered)

    z5 = cyclic_group(5)
    (DATA / "z5.assign").write_text(group_assignment_text(z5))
    (DATA / "s3.assign").write_text(group_assignment_text(symmetric_group_3()))
    (DATA / "z5-wrong-inverse.assign").write_text(
        group_assignment_text(z5, inverse=tuple(range(5))))
    (DATA / "xor.assign").write_text(
        "carrier 2\ngen mu\n0 0 -> 0\n0 1 -> 1\n1 0 -> 1\n1 1 -> 0\n"
        "gen eta\n-> 0\ngen omega\n0 -> 0\n1 -> 1\n")
    for f in sorted(DATA.iterdir()):
        print(f"wrote {f.name}")
    write_fingerprints()


def write_fingerprints():
    """Record the canary seed's input fingerprint of every workload."""
    prints = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        prints[name] = input_fingerprint(
            wl, wl.inputs(CANARY_SEED, CANARY_SECONDS))
    path = DATA.parent / "fingerprints.json"
    path.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
